package btree

import "bytes"

// Iterator is a resumable in-order cursor over a key range. Unlike
// Scan it can Seek forward mid-iteration without restarting the whole
// range, which is what turns the executor's skip-scan from repeated
// root-to-leaf scans into one streaming pass. On the arena tree the
// iterator carries no descent stack at all: its position is a leaf
// page id plus an entry index, and advancing follows the leaf chain.
//
// Zero-copy contract: Key returns a slice that aliases the tree's key
// arena. It is valid only until the next tree mutation and must be
// copied by callers that retain it. The iterator performs no per-key
// allocation, so a pooled (or stack-allocated) Iterator makes the
// whole scan path allocation-free.
//
// Concurrency: an Iterator is a pure reader with iterator-local
// state; like Scan it may run concurrently with other readers but not
// with mutations, which is the regime the parallel query router
// guarantees: a query holds the cluster's read lock for the whole
// scatter (taken once, by the router) and the record store's read lock
// once per batch of fetched documents; writes hold the cluster's write
// lock.
type Iterator struct {
	t        *Tree
	hi       Bound
	pid      pageID
	idx      int
	examined int
	key      []byte
	value    uint64
}

// Init positions the iterator at the first key satisfying lo, bounded
// above by hi. It resets all iterator state, so one Iterator value
// can be reused across scans (the executor pools them).
func (it *Iterator) Init(t *Tree, lo, hi Bound) {
	it.t = t
	it.hi = hi
	it.examined = 0
	it.key = nil
	it.value = 0
	it.pid, it.idx = nilPage, 0
	if t != nil {
		it.pid, it.idx = t.seekLeaf(lo)
	}
}

// Seek repositions the iterator at the first key >= target without
// resetting the examined count or the upper bound (a seek examines
// nothing). Seeking backwards is not supported: the executor only ever
// skips forward — twice per distinct leading value of a skip-scan, and
// almost always to a key of the leaf it is on or the one after. So
// those two leaves are tried first, by one comparison against the
// leaf's last key and a binary search of what lies ahead of the
// cursor; only a target beyond them pays a descent from the root.
func (it *Iterator) Seek(target []byte) {
	t := it.t
	if t == nil {
		return
	}
	pid, from := it.pid, it.idx
	for hop := 0; hop < 2 && pid != nilPage; hop++ {
		p := t.page(pid)
		refs := t.leafRefs(p)
		if n := pageCount(p); n > 0 && bytes.Compare(target, t.keyBytes(refs[n-1])) <= 0 {
			i, _ := t.findKey(refs[from:], n-from, target)
			it.pid, it.idx = pid, from+i
			return
		}
		pid, from = leafNext(p), 0
	}
	it.pid, it.idx = t.seekLeaf(Include(target))
}

// Next advances to the next key in the range, reporting whether one
// exists. Every key it inspects — including the first key past the
// upper bound, which terminates the scan — counts as examined,
// matching Scan's totalKeysExamined semantics.
func (it *Iterator) Next() bool {
	t := it.t
	for it.pid != nilPage {
		p := t.page(it.pid)
		if it.idx >= pageCount(p) {
			it.pid = leafNext(p)
			it.idx = 0
			continue
		}
		key := t.keyBytes(t.leafRefs(p)[it.idx])
		value := t.leafVals(p)[it.idx]
		it.idx++
		it.examined++
		if !it.hi.open() {
			if c := bytes.Compare(key, it.hi.Key); c > 0 || c == 0 && !it.hi.Inclusive {
				it.pid = nilPage
				return false
			}
		}
		it.key, it.value = key, value
		return true
	}
	return false
}

// Key returns the current key. The slice is borrowed from the tree:
// valid until the next mutation, never to be modified, copy to
// retain.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current record id.
func (it *Iterator) Value() uint64 { return it.value }

// Examined returns how many keys the iterator has inspected,
// including a terminating out-of-bounds key.
func (it *Iterator) Examined() int { return it.examined }
