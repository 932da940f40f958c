// Package btree implements the in-memory B+tree used by every index
// in the store. Keys are order-preserving byte strings produced by
// package keyenc; values are record ids. The tree is instrumented:
// range scans report how many keys they examined, which is the
// "keys examined" metric of the paper's evaluation, and an in-order
// walk estimates the on-disk index size under prefix compression,
// which regenerates the Fig. 14 index-size experiment.
//
// The tree is arena-backed (see arena.go): nodes are fixed-size pages
// inside one []uint64 addressed by page id, key bytes live in one
// companion []byte addressed by packed (offset, length) refs, so a
// shard index of a million keys presents two pointers to the garbage
// collector instead of millions. All entries live in leaves, chained
// in key order for pointer-free scans; internal pages hold separator
// copies that only route. Mutations use the classic preemptive-split /
// preemptive-merge top-down passes (as popularised by google/btree),
// so they never back up the tree.
package btree

import (
	"bytes"
	"fmt"
)

// DefaultDegree is the branching factor used when NewTree is given a
// degree < 2. Each page holds between degree-1 and 2*degree-1
// entries, making the default page exactly 1 KiB (128 words).
const DefaultDegree = 32

// Tree is a single-writer B+tree mapping byte keys to uint64 record
// ids. Keys must be unique; the index layer guarantees this by
// appending the record id to the encoded key of non-unique indexes.
// A Tree is not safe for concurrent mutation; the owning index
// serialises access.
//
// Concurrency: Get, Scan, Min, Max, Height, SizeEstimate and Stats
// are pure reads — any number of goroutines may call them
// concurrently as long as no mutation (Set/Delete) runs,
// which is the regime the parallel query router operates in
// (mutations only happen under the cluster write lock). Scan
// statistics are scan-local by construction: the examined counter
// lives on the Scan call's stack, never on the tree, so concurrent
// scans cannot corrupt each other's keys-examined counts. The only
// tree-resident counters (appends/nonAppends/maxSeen) mutate
// exclusively in Set, i.e. on the write path.
type Tree struct {
	degree    int
	pageWords int
	maxEnt    int // entries per leaf / separators per internal page
	minEnt    int

	root   pageID
	length int

	// The node arena and its free list (arena.go).
	pages []uint64
	free  []pageID

	// The key arena, its retired compaction buffer, and the dead-byte
	// count that triggers compaction.
	keys  []byte
	spare []byte
	dead  int

	// Insertion-pattern accounting for the size model: sequential
	// (append) inserts pack pages tightly, out-of-order inserts cause
	// page splits that leave pages part-filled. maxSeen tracks the
	// largest key ever inserted (not maintained by Delete, which only
	// makes the append test conservative).
	maxSeen    []byte
	appends    int
	nonAppends int
}

// NewTree returns an empty tree with the given degree (minimum number
// of children of an internal page).
func NewTree(degree int) *Tree {
	if degree < 2 {
		degree = DefaultDegree
	}
	return &Tree{
		degree:    degree,
		pageWords: 4 * degree,
		maxEnt:    2*degree - 1,
		minEnt:    degree - 1,
		root:      nilPage,
	}
}

// Len returns the number of keys stored.
func (t *Tree) Len() int { return t.length }

// findKey returns the lower bound of key among the first n refs (the
// index of the first ref whose key sorts >= key) and whether that ref
// is an exact match.
func (t *Tree) findKey(refs []uint64, n int, key []byte) (int, bool) {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(t.keyBytes(refs[mid]), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < n && bytes.Equal(t.keyBytes(refs[lo]), key)
}

// route returns the child index to descend into: the number of
// separators that sort <= key. Child i holds exactly the keys in
// [sep[i-1], sep[i]).
func (t *Tree) route(refs []uint64, n int, key []byte) int {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(t.keyBytes(refs[mid]), key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Set inserts key with value, replacing any existing value. It
// reports whether the key was newly inserted.
func (t *Tree) Set(key []byte, value uint64) bool {
	if (t.appends == 0 && t.nonAppends == 0) || bytes.Compare(key, t.maxSeen) > 0 {
		t.appends++
		t.maxSeen = append(t.maxSeen[:0], key...)
	} else {
		t.nonAppends++
	}
	if t.root == nilPage {
		t.root = t.allocPage(true)
		p := t.page(t.root)
		t.leafRefs(p)[0] = t.addKey(key)
		t.leafVals(p)[0] = value
		setPageCount(p, 1)
		t.length++
		return true
	}
	t.maybeCompact()
	if pageCount(t.page(t.root)) == t.maxEnt {
		t.splitRoot()
	}
	pid := t.root
	for {
		p := t.page(pid)
		n := pageCount(p)
		if pageIsLeaf(p) {
			refs := t.leafRefs(p)
			i, found := t.findKey(refs, n, key)
			if found {
				t.leafVals(p)[i] = value
				return false
			}
			ref := t.addKey(key)
			vals := t.leafVals(p)
			copy(refs[i+1:n+1], refs[i:n])
			copy(vals[i+1:n+1], vals[i:n])
			refs[i] = ref
			vals[i] = value
			setPageCount(p, n+1)
			t.length++
			return true
		}
		i := t.route(t.intRefs(p), n, key)
		kid := pageID(t.intKids(p)[i])
		if pageCount(t.page(kid)) == t.maxEnt {
			t.splitChild(pid, i)
			p = t.page(pid) // splitChild allocated; views are stale
			i = t.route(t.intRefs(p), pageCount(p), key)
			kid = pageID(t.intKids(p)[i])
		}
		pid = kid
	}
}

// splitNode splits a full page in half, returning the separator ref
// to insert into the parent and the new right sibling. Leaf
// separators are copies of the right half's first key (the leaf keeps
// its entry: a B+tree stores all data in leaves); internal separators
// move up, transferring ownership of the ref.
func (t *Tree) splitNode(pid pageID) (uint64, pageID) {
	leaf := pageIsLeaf(t.page(pid))
	right := t.allocPage(leaf) // may move the arena; take views after
	left, rp := t.page(pid), t.page(right)
	mid := t.maxEnt / 2
	if leaf {
		lr, rr := t.leafRefs(left), t.leafRefs(rp)
		copy(rr, lr[mid:t.maxEnt])
		copy(t.leafVals(rp), t.leafVals(left)[mid:t.maxEnt])
		setPageCount(rp, t.maxEnt-mid)
		setPageCount(left, mid)
		setLeafNext(rp, leafNext(left))
		setLeafNext(left, right)
		return t.addKey(t.keyBytes(rr[0])), right
	}
	lr := t.intRefs(left)
	sep := lr[mid]
	copy(t.intRefs(rp), lr[mid+1:t.maxEnt])
	copy(t.intKids(rp), t.intKids(left)[mid+1:t.maxEnt+1])
	setPageCount(rp, t.maxEnt-mid-1)
	setPageCount(left, mid)
	return sep, right
}

// splitRoot grows the tree by one level: a new internal root with a
// single separator over the two halves of the old root.
func (t *Tree) splitRoot() {
	newRoot := t.allocPage(false)
	sep, right := t.splitNode(t.root)
	rp := t.page(newRoot)
	t.intRefs(rp)[0] = sep
	t.intKids(rp)[0] = uint64(t.root)
	t.intKids(rp)[1] = uint64(right)
	setPageCount(rp, 1)
	t.root = newRoot
}

// splitChild splits the full i'th child of parent, which has room for
// the promoted separator (the caller split the root preemptively).
func (t *Tree) splitChild(parent pageID, i int) {
	kid := pageID(t.intKids(t.page(parent))[i])
	sep, right := t.splitNode(kid)
	p := t.page(parent)
	n := pageCount(p)
	refs, kids := t.intRefs(p), t.intKids(p)
	copy(refs[i+1:n+1], refs[i:n])
	refs[i] = sep
	copy(kids[i+2:n+2], kids[i+1:n+1])
	kids[i+1] = uint64(right)
	setPageCount(p, n+1)
}

// Get returns the value stored for key.
func (t *Tree) Get(key []byte) (uint64, bool) {
	pid := t.root
	for pid != nilPage {
		p := t.page(pid)
		n := pageCount(p)
		if pageIsLeaf(p) {
			if i, found := t.findKey(t.leafRefs(p), n, key); found {
				return t.leafVals(p)[i], true
			}
			return 0, false
		}
		pid = pageID(t.intKids(p)[t.route(t.intRefs(p), n, key)])
	}
	return 0, false
}

// Delete removes key, reporting whether it was present. Separators
// referencing the deleted key are left in place: they still route
// correctly (child i holds keys in [sep[i-1], sep[i]) regardless of
// whether the separator's key is live), so no upward fixups happen.
func (t *Tree) Delete(key []byte) bool {
	if t.root == nilPage {
		return false
	}
	t.maybeCompact()
	pid := t.root
	for {
		p := t.page(pid)
		n := pageCount(p)
		if pageIsLeaf(p) {
			refs := t.leafRefs(p)
			i, found := t.findKey(refs, n, key)
			if !found {
				return false
			}
			t.dead += refLen(refs[i])
			vals := t.leafVals(p)
			copy(refs[i:n-1], refs[i+1:n])
			copy(vals[i:n-1], vals[i+1:n])
			setPageCount(p, n-1)
			t.length--
			if pid == t.root && n == 1 {
				t.freePage(pid)
				t.root = nilPage
			}
			return true
		}
		i := t.route(t.intRefs(p), n, key)
		kid := pageID(t.intKids(p)[i])
		// Preemptive merge: never descend into a minimal child, so the
		// leaf delete cannot underflow anything above it.
		if pageCount(t.page(kid)) <= t.minEnt {
			t.growChild(pid, i)
			p = t.page(pid)
			if pid == t.root && pageCount(p) == 0 {
				// The root's two children merged; drop a level.
				kid = pageID(t.intKids(p)[0])
				t.freePage(pid)
				t.root = kid
				pid = kid
				continue
			}
			i = t.route(t.intRefs(p), pageCount(p), key)
			kid = pageID(t.intKids(p)[i])
		}
		pid = kid
	}
}

// growChild brings child i of pid above the minimum entry count by
// stealing from a sibling with slack, or merging with a minimal one.
func (t *Tree) growChild(pid pageID, i int) {
	p := t.page(pid)
	n := pageCount(p)
	kids := t.intKids(p)
	if i > 0 && pageCount(t.page(pageID(kids[i-1]))) > t.minEnt {
		t.stealFromLeft(pid, i)
		return
	}
	if i < n && pageCount(t.page(pageID(kids[i+1]))) > t.minEnt {
		t.stealFromRight(pid, i)
		return
	}
	if i == n {
		i--
	}
	t.mergeChildren(pid, i)
}

// stealFromLeft moves the left sibling's last entry (or separator and
// child) into child i, rotating through the parent separator.
func (t *Tree) stealFromLeft(pid pageID, i int) {
	p := t.page(pid)
	refs, kids := t.intRefs(p), t.intKids(p)
	left := t.page(pageID(kids[i-1]))
	child := t.page(pageID(kids[i]))
	ln, cn := pageCount(left), pageCount(child)
	if pageIsLeaf(child) {
		lr, cr := t.leafRefs(left), t.leafRefs(child)
		lv, cv := t.leafVals(left), t.leafVals(child)
		copy(cr[1:cn+1], cr[:cn])
		copy(cv[1:cn+1], cv[:cn])
		cr[0] = lr[ln-1]
		cv[0] = lv[ln-1]
		// The separator must stay <= the child's new minimum: replace
		// it with a copy of the moved key.
		t.dead += refLen(refs[i-1])
		refs[i-1] = t.addKey(t.keyBytes(cr[0]))
	} else {
		lr, cr := t.intRefs(left), t.intRefs(child)
		lk, ck := t.intKids(left), t.intKids(child)
		copy(cr[1:cn+1], cr[:cn])
		copy(ck[1:cn+2], ck[:cn+1])
		cr[0] = refs[i-1]
		ck[0] = lk[ln]
		refs[i-1] = lr[ln-1]
	}
	setPageCount(left, ln-1)
	setPageCount(child, cn+1)
}

// stealFromRight is the mirror image of stealFromLeft.
func (t *Tree) stealFromRight(pid pageID, i int) {
	p := t.page(pid)
	refs, kids := t.intRefs(p), t.intKids(p)
	child := t.page(pageID(kids[i]))
	right := t.page(pageID(kids[i+1]))
	cn, rn := pageCount(child), pageCount(right)
	if pageIsLeaf(child) {
		cr, rr := t.leafRefs(child), t.leafRefs(right)
		cv, rv := t.leafVals(child), t.leafVals(right)
		cr[cn] = rr[0]
		cv[cn] = rv[0]
		copy(rr[:rn-1], rr[1:rn])
		copy(rv[:rn-1], rv[1:rn])
		t.dead += refLen(refs[i])
		refs[i] = t.addKey(t.keyBytes(rr[0])) // right's new first key
	} else {
		cr, rr := t.intRefs(child), t.intRefs(right)
		ck, rk := t.intKids(child), t.intKids(right)
		cr[cn] = refs[i]
		ck[cn+1] = rk[0]
		refs[i] = rr[0]
		copy(rr[:rn-1], rr[1:rn])
		copy(rk[:rn], rk[1:rn+1])
	}
	setPageCount(child, cn+1)
	setPageCount(right, rn-1)
}

// mergeChildren merges child j+1 of pid into child j and frees its
// page. Capacity always fits: the caller only merges minimal pages
// (2*(degree-1) leaf entries, or (degree-1)+1+(degree-1) = maxEnt
// internal separators).
func (t *Tree) mergeChildren(pid pageID, j int) {
	p := t.page(pid)
	n := pageCount(p)
	refs, kids := t.intRefs(p), t.intKids(p)
	rightID := pageID(kids[j+1])
	left := t.page(pageID(kids[j]))
	right := t.page(rightID)
	ln, rn := pageCount(left), pageCount(right)
	if pageIsLeaf(left) {
		copy(t.leafRefs(left)[ln:ln+rn], t.leafRefs(right)[:rn])
		copy(t.leafVals(left)[ln:ln+rn], t.leafVals(right)[:rn])
		setPageCount(left, ln+rn)
		setLeafNext(left, leafNext(right))
		t.dead += refLen(refs[j]) // the separator copy dies with the merge
	} else {
		lr := t.intRefs(left)
		lr[ln] = refs[j] // the separator moves down between the halves
		copy(lr[ln+1:ln+1+rn], t.intRefs(right)[:rn])
		copy(t.intKids(left)[ln+1:ln+2+rn], t.intKids(right)[:rn+1])
		setPageCount(left, ln+1+rn)
	}
	copy(refs[j:n-1], refs[j+1:n])
	copy(kids[j+1:n], kids[j+2:n+1])
	setPageCount(p, n-1)
	t.freePage(rightID)
}

// Bound is one end of a scan range.
type Bound struct {
	Key       []byte
	Inclusive bool
	Unbounded bool
}

func (b Bound) open() bool { return b.Unbounded || b.Key == nil }

// Include returns an inclusive bound at key.
func Include(key []byte) Bound { return Bound{Key: key, Inclusive: true} }

// Exclude returns an exclusive bound at key.
func Exclude(key []byte) Bound { return Bound{Key: key} }

// Unbounded returns a bound that matches everything.
func Unbounded() Bound { return Bound{Unbounded: true} }

// seekLeaf descends to the first entry satisfying lo, returning its
// leaf page and index. When lo falls past the end of its leaf, the
// position is the head of the next leaf (or nilPage at the end of the
// tree).
func (t *Tree) seekLeaf(lo Bound) (pageID, int) {
	pid := t.root
	if pid == nilPage {
		return nilPage, 0
	}
	if lo.open() {
		for {
			p := t.page(pid)
			if pageIsLeaf(p) {
				return pid, 0
			}
			pid = pageID(t.intKids(p)[0])
		}
	}
	for {
		p := t.page(pid)
		n := pageCount(p)
		if pageIsLeaf(p) {
			i, found := t.findKey(t.leafRefs(p), n, lo.Key)
			if found && !lo.Inclusive {
				i++
			}
			if i >= n {
				return leafNext(p), 0
			}
			return pid, i
		}
		pid = pageID(t.intKids(p)[t.route(t.intRefs(p), n, lo.Key)])
	}
}

// Scan visits keys in [lo, hi] order (bounds as configured) until fn
// returns false. It returns the number of keys examined, including a
// terminating key that fell outside the upper bound. The key slice
// passed to fn is borrowed from the tree's key arena: valid until the
// next mutation, never to be modified, copy to retain. fn must not
// mutate the tree.
func (t *Tree) Scan(lo, hi Bound, fn func(key []byte, value uint64) bool) int {
	examined := 0
	pid, idx := t.seekLeaf(lo)
	for pid != nilPage {
		p := t.page(pid)
		n := pageCount(p)
		refs, vals := t.leafRefs(p), t.leafVals(p)
		for ; idx < n; idx++ {
			key := t.keyBytes(refs[idx])
			examined++
			if !hi.open() {
				if c := bytes.Compare(key, hi.Key); c > 0 || c == 0 && !hi.Inclusive {
					return examined
				}
			}
			if !fn(key, vals[idx]) {
				return examined
			}
		}
		pid = leafNext(p)
		idx = 0
	}
	return examined
}

// Min returns the smallest key, or nil. The slice is borrowed from
// the key arena (valid until the next mutation).
func (t *Tree) Min() []byte {
	pid := t.root
	if pid == nilPage {
		return nil
	}
	for {
		p := t.page(pid)
		if pageIsLeaf(p) {
			return t.keyBytes(t.leafRefs(p)[0])
		}
		pid = pageID(t.intKids(p)[0])
	}
}

// Max returns the largest key, or nil. The slice is borrowed from the
// key arena (valid until the next mutation).
func (t *Tree) Max() []byte {
	pid := t.root
	if pid == nilPage {
		return nil
	}
	for {
		p := t.page(pid)
		n := pageCount(p)
		if pageIsLeaf(p) {
			return t.keyBytes(t.leafRefs(p)[n-1])
		}
		pid = pageID(t.intKids(p)[n])
	}
}

// Height returns the tree height (0 for an empty tree, 1 for a
// root-only tree).
func (t *Tree) Height() int {
	h, pid := 0, t.root
	for pid != nilPage {
		h++
		p := t.page(pid)
		if pageIsLeaf(p) {
			break
		}
		pid = pageID(t.intKids(p)[0])
	}
	return h
}

// perKeyOverhead models the per-entry bookkeeping bytes of an on-disk
// B-tree page (cell pointer + record id).
const perKeyOverhead = 12

// Page-fill model: a B-tree bulk-loaded in key order packs its pages
// (WiredTiger appends hit a ~90% fill), while out-of-order inserts
// split pages and leave them part-filled (~65% in the random-insert
// limit).
const (
	appendFill = 0.90
	randomFill = 0.65
)

// SizeEstimate walks the tree in order and returns the estimated
// on-disk size in bytes: each key is charged only the bytes that
// differ from its in-order predecessor (prefix compression), plus a
// fixed per-key overhead, divided by the page fill factor implied by
// the observed insertion pattern. This is the model behind the
// Fig. 14 / appendix A.3 index-size discussion: keys with long shared
// prefixes compress well, and shuffling documents between shards
// (zone migrations re-inserting old _id values out of order) both
// weakens prefix sharing locality and fragments pages, growing the
// _id indexes. The estimate models the same hypothetical on-disk
// layout regardless of the in-memory representation, so it is
// comparable across tree implementations.
func (t *Tree) SizeEstimate() int64 {
	var size int64
	var prev []byte
	first := true
	t.Scan(Unbounded(), Unbounded(), func(key []byte, _ uint64) bool {
		if first {
			size += int64(len(key)) + perKeyOverhead
			first = false
		} else {
			shared := commonPrefixLen(prev, key)
			size += int64(len(key)-shared) + perKeyOverhead
		}
		prev = key
		return true
	})
	return int64(float64(size) / t.fillFactor())
}

// fillFactor interpolates between packed and fragmented page layouts
// by the fraction of out-of-order inserts.
func (t *Tree) fillFactor() float64 {
	total := t.appends + t.nonAppends
	if total == 0 {
		return appendFill
	}
	frac := float64(t.nonAppends) / float64(total)
	return appendFill - (appendFill-randomFill)*frac
}

func commonPrefixLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// check validates the structural invariants of the tree; used by
// tests.
func (t *Tree) check() error {
	totalPages := 0
	if t.pageWords > 0 {
		totalPages = len(t.pages) / t.pageWords
	}
	if t.root == nilPage {
		if t.length != 0 {
			return fmt.Errorf("btree: empty root but length %d", t.length)
		}
		if len(t.free) != totalPages {
			return fmt.Errorf("btree: empty tree with %d of %d pages on the free list", len(t.free), totalPages)
		}
		return nil
	}
	live := make(map[pageID]bool)
	count, _, err := t.checkPage(t.root, true, nil, nil, live)
	if err != nil {
		return err
	}
	if count != t.length {
		return fmt.Errorf("btree: length %d but %d reachable entries", t.length, count)
	}
	// Page accounting: every arena page is either reachable or free,
	// never both, never neither.
	if len(live)+len(t.free) != totalPages {
		return fmt.Errorf("btree: %d live + %d free pages != %d total", len(live), len(t.free), totalPages)
	}
	seenFree := make(map[pageID]bool)
	for _, pid := range t.free {
		if live[pid] {
			return fmt.Errorf("btree: page %d both live and free", pid)
		}
		if seenFree[pid] {
			return fmt.Errorf("btree: page %d on the free list twice", pid)
		}
		seenFree[pid] = true
	}
	// The leaf chain must visit exactly the in-order leaves.
	chain, _ := t.seekLeaf(Unbounded())
	var walkLeaves func(pid pageID) error
	walkLeaves = func(pid pageID) error {
		p := t.page(pid)
		if pageIsLeaf(p) {
			if pid != chain {
				return fmt.Errorf("btree: leaf chain out of order (want page %d, chain at %d)", pid, chain)
			}
			chain = leafNext(p)
			return nil
		}
		kids := t.intKids(p)
		for i := 0; i <= pageCount(p); i++ {
			if err := walkLeaves(pageID(kids[i])); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walkLeaves(t.root); err != nil {
		return err
	}
	if chain != nilPage {
		return fmt.Errorf("btree: leaf chain continues past the last leaf (page %d)", chain)
	}
	return nil
}

// checkPage validates the subtree at pid, whose keys must lie in
// [lo, hi) (nil = unbounded), returning its entry count and depth.
func (t *Tree) checkPage(pid pageID, isRoot bool, lo, hi []byte, live map[pageID]bool) (int, int, error) {
	if pid == nilPage || int(pid) >= len(t.pages)/t.pageWords {
		return 0, 0, fmt.Errorf("btree: child page id %d out of range", pid)
	}
	if live[pid] {
		return 0, 0, fmt.Errorf("btree: page %d reachable twice", pid)
	}
	live[pid] = true
	p := t.page(pid)
	n := pageCount(p)
	if n > t.maxEnt {
		return 0, 0, fmt.Errorf("btree: page overflow (%d entries)", n)
	}
	if pageIsLeaf(p) {
		if !isRoot && n < t.minEnt {
			return 0, 0, fmt.Errorf("btree: leaf underflow (%d entries)", n)
		}
		if isRoot && n == 0 {
			return 0, 0, fmt.Errorf("btree: empty leaf root not collapsed")
		}
		refs := t.leafRefs(p)
		for i := 0; i < n; i++ {
			k := t.keyBytes(refs[i])
			if lo != nil && bytes.Compare(k, lo) < 0 {
				return 0, 0, fmt.Errorf("btree: leaf key below its routing bound")
			}
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				return 0, 0, fmt.Errorf("btree: leaf key at or above its routing bound")
			}
			if i > 0 && bytes.Compare(t.keyBytes(refs[i-1]), k) >= 0 {
				return 0, 0, fmt.Errorf("btree: leaf keys not strictly increasing")
			}
		}
		return n, 1, nil
	}
	if !isRoot && n < t.minEnt {
		return 0, 0, fmt.Errorf("btree: internal underflow (%d separators)", n)
	}
	if isRoot && n == 0 {
		return 0, 0, fmt.Errorf("btree: unary internal root not collapsed")
	}
	refs, kids := t.intRefs(p), t.intKids(p)
	for i := 0; i < n; i++ {
		k := t.keyBytes(refs[i])
		if lo != nil && bytes.Compare(k, lo) <= 0 {
			return 0, 0, fmt.Errorf("btree: separator at or below its bound")
		}
		if hi != nil && bytes.Compare(k, hi) >= 0 {
			return 0, 0, fmt.Errorf("btree: separator at or above its bound")
		}
		if i > 0 && bytes.Compare(t.keyBytes(refs[i-1]), k) >= 0 {
			return 0, 0, fmt.Errorf("btree: separators not strictly increasing")
		}
	}
	count, depth := 0, -1
	for i := 0; i <= n; i++ {
		clo, chi := lo, hi
		if i > 0 {
			clo = t.keyBytes(refs[i-1])
		}
		if i < n {
			chi = t.keyBytes(refs[i])
		}
		cc, d, err := t.checkPage(pageID(kids[i]), false, clo, chi, live)
		if err != nil {
			return 0, 0, err
		}
		if depth == -1 {
			depth = d
		} else if d != depth {
			return 0, 0, fmt.Errorf("btree: uneven leaf depth")
		}
		count += cc
	}
	return count, depth + 1, nil
}
