package sharding

// Placement decisions: which chunk a document lands in, when and where
// a chunk splits, and which chunk the balancer moves to which shard.
//
// Every decision reads chunk bounds, chunk counts and the sorted
// shard-key tuples of one chunk's documents — never a document's
// bytes. chunkMap holds the state they read and write; a chunkStore
// supplies the tuples and carries out what a decision means for the
// stored documents. The live cluster is one chunkStore (its
// collections); Load's key model (bulkload.go) is another, which places
// a whole data set before storing any of it. Both drive the same
// chunkMap code, so the bulk path cannot decide differently from the
// per-document one.

import (
	"bytes"
	"cmp"
	"slices"
	"sort"
)

// chunkMap is the cluster's placement state: the chunk map, the zones
// and the balancer's counters, with the options that steer them.
type chunkMap struct {
	chunks []*Chunk // sorted by Min
	zones  []Zone   // sorted by Min; may be empty

	shards       int   // Options.Shards
	maxBytes     int64 // Options.ChunkMaxBytes: the split threshold
	balanceEvery int   // Options.AutoBalanceEvery; <= 0 never auto-balances

	sinceBalance int
	splits       int
	migrations   int
	jumbo        int
}

// chunkStore is what placement decisions act on.
type chunkStore interface {
	// chunkTuples visits the shard-key tuples of the chunk's documents
	// in sorted order; the slices are borrowed for the visit.
	chunkTuples(ch *Chunk) func(visit func(tuple []byte) bool)
	// afterSplit follows a split of left: right now covers the tuples
	// from right.Min on, on the same shard.
	afterSplit(left, right *Chunk)
	// moveDocs migrates the chunk's documents to shard to; ch.Shard
	// still names the donor.
	moveDocs(ch *Chunk, to int)
}

// findChunk returns the index of the chunk containing the tuple, or
// -1. Chunks tile the key space, so a valid tuple always lands.
func (m *chunkMap) findChunk(tuple []byte) int {
	// First chunk whose Max > tuple.
	i := sort.Search(len(m.chunks), func(i int) bool {
		return bytes.Compare(m.chunks[i].Max, tuple) > 0
	})
	if i < len(m.chunks) && m.chunks[i].Contains(tuple) {
		return i
	}
	return -1
}

// placed accounts one newly stored document of size bytes and shard-key
// tuple to chunk ci and takes the decisions an insert triggers: a size
// split of that chunk, then the auto-balance cadence. A jumbo chunk is
// walked again only when the document's tuple is not the one all its
// documents share — no walk could split it otherwise.
func (m *chunkMap) placed(ci, size int, tuple []byte, st chunkStore) {
	ch := m.chunks[ci]
	ch.Docs++
	ch.Bytes += int64(size)
	if ch.single != nil && !bytes.Equal(tuple, ch.single) {
		ch.single = nil
	}
	if ch.Bytes > m.maxBytes && ch.single == nil {
		m.splitChunk(ci, st)
	}
	if m.balanceEvery > 0 {
		m.sinceBalance++
		if m.sinceBalance >= m.balanceEvery {
			m.sinceBalance = 0
			m.balance(st)
		}
	}
}

// splitChunk splits chunk ci at the median shard-key value. A chunk
// whose documents all share one tuple cannot be split — the "jumbo"
// case the paper discusses for skewed Hilbert values (the compound
// (hilbertIndex, date) key avoids it because dates have high
// cardinality): it is counted once and remembers its tuple. It takes
// two passes over the chunk's tuples — count, then walk to the median.
func (m *chunkMap) splitChunk(ci int, st chunkStore) {
	ch := m.chunks[ci]
	each := st.chunkTuples(ch)
	n := countTuples(each)
	if n < 2 {
		return
	}
	split, leftDocs, ok := splitPoint(n, each)
	if !ok {
		m.jumbo++
		ch.single = singleTuple(each)
		return
	}
	m.splitAt(ci, split, leftDocs, n, st)
}

func countTuples(each func(visit func(tuple []byte) bool)) int {
	n := 0
	each(func([]byte) bool {
		n++
		return true
	})
	return n
}

// singleTuple copies the first tuple each visits — for a jumbo chunk,
// the one tuple of all its documents.
func singleTuple(each func(visit func(tuple []byte) bool)) []byte {
	var out []byte
	each(func(tuple []byte) bool {
		out = bytes.Clone(tuple)
		return false
	})
	return out
}

// refindJumbo marks the jumbo chunks of a restored chunk map, whose
// snapshot keeps the jumbo count but not which chunks are jumbo: those
// over the split threshold whose two or more documents share one tuple.
// Nothing is counted again.
func (m *chunkMap) refindJumbo(st chunkStore) {
	for _, ch := range m.chunks {
		if ch.Bytes <= m.maxBytes {
			continue
		}
		each := st.chunkTuples(ch)
		if n := countTuples(each); n >= 2 {
			if _, _, ok := splitPoint(n, each); !ok {
				ch.single = singleTuple(each)
			}
		}
	}
}

// splitPoint picks where a chunk holding n documents splits: the
// median tuple — or, when the median equals the lowest tuple, the
// first tuple above it, so both halves are non-empty — and how many
// documents sort below it. each visits the chunk's tuples in sorted
// order with borrowed slices that stay valid for the whole visit (the
// index is not mutated meanwhile); the chosen tuple is the only one
// copied. ok is false when every document shares one tuple.
func splitPoint(n int, each func(visit func(tuple []byte) bool)) (split []byte, leftDocs int, ok bool) {
	var run []byte // the tuple of the run of equal tuples being visited
	runStart, i := 0, 0
	each(func(tuple []byte) bool {
		if i == 0 || !bytes.Equal(tuple, run) {
			if i > n/2 {
				// The median's run began at the low end; this is the
				// first tuple above it.
				split, leftDocs, ok = bytes.Clone(tuple), i, true
				return false
			}
			run, runStart = tuple, i
		}
		if i == n/2 && runStart > 0 {
			split, leftDocs, ok = bytes.Clone(tuple), runStart, true
			return false
		}
		i++
		return true
	})
	return split, leftDocs, ok
}

// splitAt makes split an edge of chunk ci, whose n documents number
// leftDocs below it: the one split body, shared by size splits and
// zone boundaries. The chunk's bytes are apportioned per document, the
// right half goes in after it, and the store is told.
func (m *chunkMap) splitAt(ci int, split []byte, leftDocs, n int, st chunkStore) {
	ch := m.chunks[ci]
	perDoc := ch.Bytes / int64(max(ch.Docs, 1))
	right := &Chunk{
		Min:   split,
		Max:   ch.Max,
		Shard: ch.Shard,
		Docs:  n - leftDocs,
		Bytes: perDoc * int64(n-leftDocs),
	}
	ch.Max = split
	ch.Docs = leftDocs
	ch.Bytes = perDoc * int64(leftDocs)
	if ch.single != nil && right.Contains(ch.single) {
		// A jumbo chunk cut at a zone edge: its documents are all on
		// the right.
		right.single, ch.single = ch.single, nil
	}
	m.chunks = slices.Insert(m.chunks, ci+1, right)
	m.splits++
	st.afterSplit(ch, right)
}

// balance runs the balancer until the chunk counts are even (or no
// legal move remains).
func (m *chunkMap) balance(st chunkStore) {
	for {
		ch, to := m.nextMove()
		if ch == nil {
			return
		}
		m.move(ch, to, st)
	}
}

// nextMove picks the balancer's next migration: the lowest-range
// movable chunk of the most chunk-loaded donor, to the least-loaded
// shard that may accept it (zones constrain the legal destinations).
// ch is nil when no move evens the counts further.
func (m *chunkMap) nextMove() (ch *Chunk, to int) {
	counts := m.chunkCounts()
	// Consider donors from most to least loaded.
	order := make([]int, m.shards)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(counts[b], counts[a]) })
	for _, donor := range order {
		if counts[donor] == 0 {
			break
		}
		// Move the donor's lowest-range movable chunk. For a
		// monotonically increasing shard key (date), inserts hit the
		// top chunk, so the donor sheds its oldest ranges in contiguous
		// runs — the real balancer's behaviour, and the reason the
		// paper's short-window queries touch few nodes.
		for _, ch := range m.chunks {
			if ch.Shard != donor {
				continue
			}
			recipient := m.bestRecipient(ch, counts)
			if recipient < 0 || counts[donor]-counts[recipient] <= 1 {
				continue
			}
			return ch, recipient
		}
	}
	return nil, -1
}

// bestRecipient returns the allowed shard with the fewest chunks, or
// -1.
func (m *chunkMap) bestRecipient(ch *Chunk, counts []int) int {
	zoneShard := m.zoneShardFor(ch)
	if zoneShard >= 0 {
		if zoneShard == ch.Shard {
			return -1
		}
		return zoneShard
	}
	best := -1
	for i := 0; i < m.shards; i++ {
		if i == ch.Shard {
			continue
		}
		// A chunk outside every zone may go to any shard.
		if best < 0 || counts[i] < counts[best] {
			best = i
		}
	}
	return best
}

// move migrates the chunk to shard to and reassigns its ownership.
func (m *chunkMap) move(ch *Chunk, to int, st chunkStore) {
	if ch.Shard == to {
		return
	}
	st.moveDocs(ch, to)
	ch.Shard = to
	m.migrations++
}

func (m *chunkMap) chunkCounts() []int {
	counts := make([]int, m.shards)
	for _, ch := range m.chunks {
		counts[ch.Shard]++
	}
	return counts
}

// zoneShardFor returns the shard a chunk is pinned to, or -1 when the
// chunk lies outside every zone. Chunks are split at zone borders, so
// testing Min suffices.
func (m *chunkMap) zoneShardFor(ch *Chunk) int {
	for _, z := range m.zones {
		if z.Contains(ch.Min) {
			return z.Shard
		}
	}
	return -1
}
