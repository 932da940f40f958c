package btree

// The arena: every node of the tree lives in one growable []uint64,
// sliced into fixed-size pages addressed by page id, and every key
// byte lives in one growable []byte addressed by (offset, length)
// refs packed into single words. The Go garbage collector therefore
// sees O(1) pointers per tree — the two arena slices — instead of the
// O(n) per-node and per-key pointers of a conventional pointer tree,
// which is what keeps GC pause flat at millions of keys per shard.
//
// Page layout is structure-of-arrays within the page, so a binary
// search touches one contiguous run of key refs:
//
//	leaf:     [ meta | next | keyRef×maxEnt | value×maxEnt ]
//	internal: [ meta |    keyRef×maxEnt | child×(maxEnt+1) ]
//
// with meta = count (low 16 bits) | leaf flag (bit 16). Both layouts
// occupy exactly pageWords = 4*degree words. Freed pages go on a
// free-list slice (never touched again until reallocated), freed key
// bytes are accounted as dead and reclaimed by compaction.

// pageID addresses a page inside the arena. The zero id is a valid
// page; nilPage is the sentinel "no page".
type pageID uint32

const nilPage pageID = ^pageID(0)

const (
	// pageMeta bit assignment.
	countMask = 0xffff
	leafBit   = 1 << 16

	// Key refs pack (offset << keyLenBits | length); 48 offset bits
	// address 256 TiB of key bytes per tree, 16 length bits cap a
	// single key at 64 KiB (keyenc tuples are tens of bytes).
	keyLenBits = 16
	keyLenMask = 1<<keyLenBits - 1
)

// page returns the pid'th page as a full-capacity slice view into the
// arena. The view is invalidated by the next allocPage call (the
// backing array may move); callers re-acquire after any allocation.
func (t *Tree) page(pid pageID) []uint64 {
	off := int(pid) * t.pageWords
	return t.pages[off : off+t.pageWords : off+t.pageWords]
}

func pageCount(p []uint64) int       { return int(p[0] & countMask) }
func setPageCount(p []uint64, n int) { p[0] = p[0]&^uint64(countMask) | uint64(n) }
func pageIsLeaf(p []uint64) bool     { return p[0]&leafBit != 0 }

// Leaf pages: word 1 is the next-leaf link that chains all leaves in
// key order (what makes scans a pointer-free linear walk).
func leafNext(p []uint64) pageID       { return pageID(p[1]) }
func setLeafNext(p []uint64, n pageID) { p[1] = uint64(n) }

func (t *Tree) leafRefs(p []uint64) []uint64 { return p[2 : 2+t.maxEnt] }
func (t *Tree) leafVals(p []uint64) []uint64 { return p[2+t.maxEnt : 2+2*t.maxEnt] }

// Internal pages: maxEnt separator refs, maxEnt+1 child page ids.
func (t *Tree) intRefs(p []uint64) []uint64 { return p[1 : 1+t.maxEnt] }
func (t *Tree) intKids(p []uint64) []uint64 { return p[1+t.maxEnt : 2+2*t.maxEnt] }

// allocPage returns a page from the free list, or extends the arena.
// Reused pages keep their stale words; the count field gates every
// read, so no zeroing is needed.
func (t *Tree) allocPage(leaf bool) pageID {
	var pid pageID
	if n := len(t.free); n > 0 {
		pid = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		off := len(t.pages)
		if cap(t.pages) < off+t.pageWords {
			newCap := 2 * cap(t.pages)
			if min := off + t.pageWords; newCap < min {
				newCap = min
			}
			if min := 16 * t.pageWords; newCap < min {
				newCap = min
			}
			np := make([]uint64, off, newCap)
			copy(np, t.pages)
			t.pages = np
		}
		t.pages = t.pages[: off+t.pageWords : cap(t.pages)]
		pid = pageID(off / t.pageWords)
	}
	p := t.page(pid)
	if leaf {
		p[0] = leafBit
		setLeafNext(p, nilPage)
	} else {
		p[0] = 0
	}
	return pid
}

// freePage returns a page to the free list without touching its
// contents — the whole-page drop primitive DeleteBelow builds on.
func (t *Tree) freePage(pid pageID) { t.free = append(t.free, pid) }

// addKey appends key bytes to the key arena and returns the packed
// ref. It never compacts — compaction runs only at operation entry
// (maybeCompact), when the tree is structurally consistent.
func (t *Tree) addKey(k []byte) uint64 {
	if len(k) > keyLenMask {
		panic("btree: key longer than 64 KiB")
	}
	off := len(t.keys)
	t.keys = append(t.keys, k...)
	return uint64(off)<<keyLenBits | uint64(len(k))
}

// keyBytes resolves a ref into a borrowed view of the key arena,
// valid until the next mutation.
func (t *Tree) keyBytes(ref uint64) []byte {
	off := ref >> keyLenBits
	return t.keys[off : off+ref&keyLenMask]
}

func refLen(ref uint64) int { return int(ref & keyLenMask) }

// compactKeysAt is the dead-byte threshold below which compaction
// never runs, so small trees never pay the walk.
const compactKeysAt = 1 << 15

// maybeCompact rewrites the key arena when more than half of it is
// dead. The live bytes are copied into the retired spare buffer and
// the buffers swap roles, so a warm tree cycling inserts and deletes
// alternates between two buffers and stops allocating entirely once
// both have grown to the working-set peak.
func (t *Tree) maybeCompact() {
	if t.dead < compactKeysAt || t.dead <= len(t.keys)-t.dead {
		return
	}
	buf := t.spare[:0]
	if t.root != nilPage {
		buf = t.compactPage(t.root, buf)
	}
	t.spare = t.keys
	t.keys = buf
	t.dead = 0
}

// compactPage re-appends every live key of the subtree into buf and
// rewrites the page's refs in place.
func (t *Tree) compactPage(pid pageID, buf []byte) []byte {
	p := t.page(pid)
	n := pageCount(p)
	var refs []uint64
	if pageIsLeaf(p) {
		refs = t.leafRefs(p)
	} else {
		refs = t.intRefs(p)
	}
	for i := 0; i < n; i++ {
		off := len(buf)
		buf = append(buf, t.keyBytes(refs[i])...)
		refs[i] = uint64(off)<<keyLenBits | refs[i]&keyLenMask
	}
	if !pageIsLeaf(p) {
		kids := t.intKids(p)
		for i := 0; i <= n; i++ {
			buf = t.compactPage(pageID(kids[i]), buf)
		}
	}
	return buf
}

// ArenaStats is the arena-level instrumentation tests and tools read:
// page accounting, the DeleteBelow blind-free counters, and key-arena
// occupancy.
type ArenaStats struct {
	// Pages is the total number of page slots in the arena; FreePages
	// of them are on the free list.
	Pages     int
	FreePages int
	// PagesFreedBlind counts pages DeleteBelow freed without decoding
	// any of their entries (whole dropped leaves); PagesFreedVisited
	// counts dropped pages whose contents had to be read (the
	// internal pages enumerating children). The acceptance bar for
	// the fast drop is Blind/(Blind+Visited) >= 0.9.
	PagesFreedBlind   int
	PagesFreedVisited int
	// KeyArenaBytes is the key arena's current length; KeyArenaDead
	// the (estimated) dead bytes awaiting compaction.
	KeyArenaBytes int
	KeyArenaDead  int
}

// Stats returns the current arena instrumentation.
func (t *Tree) Stats() ArenaStats {
	return ArenaStats{
		Pages:             len(t.pages) / t.pageWords,
		FreePages:         len(t.free),
		PagesFreedBlind:   t.freedBlind,
		PagesFreedVisited: t.freedVisited,
		KeyArenaBytes:     len(t.keys),
		KeyArenaDead:      t.dead,
	}
}
