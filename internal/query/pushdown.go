package query

import (
	"bytes"
	"slices"
	"sync"

	"repro/internal/bson"
	"repro/internal/btree"
	"repro/internal/keyenc"
	"repro/internal/storage"
)

// Opts are the per-execution options the client pushes down into the
// scan. They are not part of the plan-cache shape: plan selection is
// limit-independent, which is what makes a pushed-down limit return
// exactly the prefix of the unlimited execution's results (the
// byte-identity property the differential tests pin).
type Opts struct {
	// Limit bounds the number of documents returned; 0 = unlimited.
	// Without OrderBy the scan stops as soon as the quota is met; with
	// OrderBy the scan still visits every match but retains only the
	// top k in a bounded heap.
	Limit int
	// OrderBy orders results by this field's encoded key instead of
	// natural (scan) order. Results then carry parallel Keys so a
	// router can k-way merge per-shard streams without re-extracting
	// values. Empty = natural order.
	OrderBy string
	// Desc reverses the OrderBy order.
	Desc bool
	// Agg, when active, turns the execution into an aggregation: the
	// scan visits every match (Limit and OrderBy are ignored — an
	// aggregate must see the whole result set) and the Result carries
	// a partial AggResult instead of documents.
	Agg AggSpec
}

// ordered reports whether results are sorted rather than in scan
// order.
func (o Opts) ordered() bool { return o.OrderBy != "" }

// appendSortKey encodes the ordering field of a document the way
// index keys are encoded (missing fields as null, sorting first), so
// ordering by a field agrees with an index over that field.
func appendSortKey(dst []byte, doc bson.Raw, field string) []byte {
	if v, ok := doc.LookupRaw(field); ok {
		if out, ok := keyenc.AppendRaw(dst, v); ok {
			return out
		}
	}
	return keyenc.AppendValue(dst, nil)
}

// topKItem is one retained candidate: its encoded sort key, the
// borrowed document bytes, and its arrival sequence (the stable-sort
// tie-break).
type topKItem struct {
	key []byte
	doc bson.Raw
	seq int
}

// topK retains the first `limit` items of the stable order (key,
// then arrival) — exactly the prefix of a stable sort over all
// offered items, computed in O(n log k) with at most k live items.
// limit 0 means keep everything (a full sort).
//
// Key buffers are owned by the slots and recycled across resets, so a
// warm ordered scan allocates only when a key outgrows its slot.
type topK struct {
	items []topKItem
	n     int // live items in items[:n]
	limit int
	desc  bool
	seq   int
}

func (t *topK) reset(limit int, desc bool) {
	for i := range t.items[:t.n] {
		t.items[i].doc = nil
	}
	t.n, t.limit, t.desc, t.seq = 0, limit, desc, 0
}

// cmpKeys compares encoded keys under the effective order.
func (t *topK) cmpKeys(a, b []byte) int {
	c := bytes.Compare(a, b)
	if t.desc {
		return -c
	}
	return c
}

// less orders items by (key, seq): the stable-sort order.
func (t *topK) less(a, b *topKItem) bool {
	if c := t.cmpKeys(a.key, b.key); c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}

// offer considers one document; key is borrowed (copied into a slot
// only if retained).
func (t *topK) offer(doc bson.Raw, key []byte) {
	seq := t.seq
	t.seq++
	if t.limit == 0 || t.n < t.limit {
		if t.n == len(t.items) {
			t.items = append(t.items, topKItem{})
		}
		s := &t.items[t.n]
		s.key = append(s.key[:0], key...)
		s.doc, s.seq = doc, seq
		t.n++
		if t.limit > 0 && t.n == t.limit {
			t.heapify()
		}
		return
	}
	// Full: items[:n] is a max-heap on (key, seq) with the worst
	// retained item at the root. The newcomer's seq exceeds every
	// retained seq, so it displaces the root only when its key is
	// strictly better.
	if t.cmpKeys(key, t.items[0].key) >= 0 {
		return
	}
	s := &t.items[0]
	s.key = append(s.key[:0], key...)
	s.doc, s.seq = doc, seq
	t.siftDown(0)
}

func (t *topK) heapify() {
	for i := t.n/2 - 1; i >= 0; i-- {
		t.siftDown(i)
	}
}

// siftDown restores the max-heap property (parent not less than
// children under the (key, seq) order) from slot i.
func (t *topK) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < t.n && t.less(&t.items[largest], &t.items[l]) {
			largest = l
		}
		if r < t.n && t.less(&t.items[largest], &t.items[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		t.items[i], t.items[largest] = t.items[largest], t.items[i]
		i = largest
	}
}

// finish sorts the retained items into the final order. The returned
// slice aliases topK state and is valid until the next reset.
func (t *topK) finish() []topKItem {
	live := t.items[:t.n]
	// (key, seq) is a strict total order, so an unstable sort yields
	// the stable-by-key order.
	slices.SortFunc(live, func(a, b topKItem) int {
		if c := t.cmpKeys(a.key, b.key); c != 0 {
			return c
		}
		return a.seq - b.seq
	})
	return live
}

// scratch is the pooled per-execution working set: the B-tree
// iterator, the skip-scan resume buffer, the fetch batch, the document
// accumulator, the top-k heap and the sort-key scratch buffer.
// Executions take one from the pool, run, copy the (exact-size) results
// out, and return it, so a warm query performs no per-scan allocations
// beyond the result itself.
type scratch struct {
	it     btree.Iterator
	resume []byte
	batch  batch
	doc    bson.Raw // the document being matched
	docs   []bson.Raw
	top    topK
	keyBuf []byte
	agg    aggAcc
	only   Plan // the filter's one candidate plan (onlyPlan)
}

// batch is the scan's queue of examined-but-unprocessed index entries
// (see exec.flush): fixed arrays, 1.3 KB, so filling it allocates
// nothing.
type batch struct {
	n    int
	ids  [fetchBatch]storage.RecordID
	seen [fetchBatch]int // the iterator's Examined() at each entry's key
	raws [fetchBatch][]byte
	sink byte // where the touch pass's loads land
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(s *scratch) {
	// Drop document references (they pin store records otherwise);
	// keep every byte buffer for reuse.
	s.doc = nil
	clear(s.batch.raws[:])
	clear(s.docs)
	s.docs = s.docs[:0]
	s.top.reset(0, false)
	s.agg.reset()
	s.only = Plan{}
	scratchPool.Put(s)
}

// buildResult materializes the scratch's accumulated matches into an
// owned Result. Document bytes stay zero-copy views of the store;
// only the slice headers (and, for ordered queries, the encoded sort
// keys) are copied out of pooled memory. This is the trust boundary:
// everything the Result references survives the scratch's reuse.
func (s *scratch) buildResult(opts Opts) *Result {
	if opts.Agg.Active() {
		// Aggregates ship no documents; the accumulator materializes
		// into an owned canonical AggResult.
		return &Result{Agg: s.agg.result(opts.Agg)}
	}
	if !opts.ordered() {
		docs := make([]bson.Raw, len(s.docs))
		copy(docs, s.docs)
		return &Result{Docs: docs}
	}
	live := s.top.finish()
	if opts.Limit > 0 && len(live) > opts.Limit {
		live = live[:opts.Limit]
	}
	docs := make([]bson.Raw, len(live))
	keys := make([][]byte, len(live))
	total := 0
	for _, it := range live {
		total += len(it.key)
	}
	// One flat allocation backs every returned key.
	flat := make([]byte, 0, total)
	for i := range live {
		docs[i] = live[i].doc
		start := len(flat)
		flat = append(flat, live[i].key...)
		keys[i] = flat[start:len(flat):len(flat)]
	}
	return &Result{Docs: docs, Keys: keys}
}
