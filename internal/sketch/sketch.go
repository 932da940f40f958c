// Package sketch provides the compact per-chunk summaries the router
// planner prunes shards with: a counting bloom filter over coarse
// space-filling-curve cells (membership with a bounded false-positive
// rate and no false negatives). It only ever over-approximates the set
// it summarizes, which is the property pruning rests on: a summary can
// prove a shard empty for a query's cell set, never prove it non-empty.
package sketch

// Summary is one chunk's (or shard's) cell summary. It is not
// goroutine-safe; the cluster serializes access under its own lock.
//
// Counters are 8-bit and sticky at 255: once a slot saturates it is
// never incremented or decremented again, so a counter below 255 is
// exact and a saturated counter is a permanent over-count. That keeps
// MayContain free of false negatives whatever mix of adds and removes
// preceded it — at the price of precision, which the owner restores by
// rebuilding the summary from the data.
type Summary struct {
	bloom  []uint8
	mask   uint64
	hashes int
}

// New sizes a summary for roughly expectedCells distinct cells: the
// bloom gets 8 counters per expected cell (≈2.7% false-positive rate
// at 3 hashes), rounded up to a power of two so indexing is a mask.
func New(expectedCells int) *Summary {
	if expectedCells < 32 {
		expectedCells = 32
	}
	bloomSize := ceilPow2(uint64(expectedCells) * 8)
	return &Summary{
		bloom:  make([]uint8, bloomSize),
		mask:   bloomSize - 1,
		hashes: 3,
	}
}

func ceilPow2(v uint64) uint64 {
	n := uint64(1)
	for n < v {
		n <<= 1
	}
	return n
}

// mix is a 64-bit finalizer (splitmix64's): full avalanche, so cell
// ids that differ in one bit index independent slots.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// slots derives the k bloom slot indices via double hashing.
func (s *Summary) slot(cell uint64, i int) uint64 {
	h1 := mix(cell)
	h2 := mix(cell ^ 0x9e3779b97f4a7c15)
	return (h1 + uint64(i)*h2) & s.mask
}

// Add records one document in the given cell.
func (s *Summary) Add(cell uint64) {
	for i := 0; i < s.hashes; i++ {
		j := s.slot(cell, i)
		if s.bloom[j] == 255 {
			continue
		}
		s.bloom[j]++
	}
}

// Remove erases one previously-added document from the cell. Saturated
// slots are left untouched (they stay conservative over-counts); other
// slots hold exact counts, so a zero slot under Remove indicates the
// caller removed something it never added — the summary clamps rather
// than underflows, preserving the no-false-negative invariant for
// every other cell.
func (s *Summary) Remove(cell uint64) {
	for i := 0; i < s.hashes; i++ {
		j := s.slot(cell, i)
		if s.bloom[j] == 255 || s.bloom[j] == 0 {
			continue
		}
		s.bloom[j]--
	}
}

// MayContain reports whether the cell might hold live documents. False
// means provably empty; true may be a false positive.
func (s *Summary) MayContain(cell uint64) bool {
	for i := 0; i < s.hashes; i++ {
		if s.bloom[s.slot(cell, i)] == 0 {
			return false
		}
	}
	return true
}

// MayContainRange reports whether any cell in [lo, hi] might hold
// documents. Probing is bounded: when the range spans more than
// maxProbe cells the summary gives up and answers true (cannot prove
// empty), so planner cost stays O(maxProbe) per chunk.
func (s *Summary) MayContainRange(lo, hi uint64, maxProbe int) bool {
	if hi < lo {
		return false
	}
	if span := hi - lo; span >= uint64(maxProbe) {
		return true
	}
	for c := lo; ; c++ {
		if s.MayContain(c) {
			return true
		}
		if c == hi {
			return false
		}
	}
}
