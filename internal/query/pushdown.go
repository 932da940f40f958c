package query

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math/bits"
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
	// Without OrderBy the scan stops as soon as the quota is met. With
	// OrderBy the scan still visits every key; when the plan's index
	// holds the field, documents are then fetched in key order until
	// the quota is met, and otherwise every match is refined and the
	// best Limit retained.
	Limit int
	// OrderBy orders results by this field's encoded key instead of
	// natural (scan) order. Results then carry parallel Keys so a
	// router can k-way merge per-shard streams without re-extracting
	// values. Empty = natural order.
	OrderBy string
	// Desc reverses the OrderBy order.
	Desc bool
	// Bound, when not empty, is a sort key that Limit results the caller
	// already holds are at least as good as: an ordered walk's Limit-th
	// best key over the shards it asked before. A match strictly worse
	// than it cannot make the answer, so the key pass and the ranking
	// drop it; ties are kept. Only an ordered execution reads it.
	Bound []byte
	// Agg, when active, turns the execution into an aggregation: the
	// scan visits every match (Limit and OrderBy are ignored — an
	// aggregate must see the whole result set) and the Result carries
	// a partial AggResult instead of documents.
	Agg AggSpec
}

// ordered reports whether results are sorted rather than in scan
// order.
func (o Opts) ordered() bool { return o.OrderBy != "" }

// worse reports whether key sorts strictly after bound under desc; an
// empty bound bounds nothing.
func worse(key, bound []byte, desc bool) bool {
	if len(bound) == 0 {
		return false
	}
	c := bytes.Compare(key, bound)
	if desc {
		c = -c
	}
	return c > 0
}

// appendSortKey encodes the ordering field of a document the way
// index keys are encoded (missing fields as null, sorting first), so
// ordering by a field agrees with an index over that field: for a
// stored document it is byte for byte the field's component of the
// document's entry in an index with an Ascending component on it
// (FuzzEntryKeyRaw), which is what lets a key-first execution order
// by keys alone.
func appendSortKey(dst []byte, doc bson.Raw, field string) []byte {
	if v, ok := doc.LookupRaw(field); ok {
		if out, ok := keyenc.AppendRaw(dst, v); ok {
			return out
		}
	}
	return keyenc.AppendValue(dst, nil)
}

// candidate is one in-bounds key of a key-first ordered execution: the
// record it points at, the span of its sort key in keyFirst.keys, and
// whether the key lies in an interior cell (its document is kept
// without the refine).
type candidate struct {
	id       storage.RecordID
	off, end int32
	inside   bool
}

// keyFirst holds a key-first ordered execution's candidates (see
// exec.queueKey) and hands them out in the order the fetch pass refines
// them in: (sort key under Desc, scan position), the order a stable
// sort of the matches by key takes.
//
// Each candidate becomes one word that a plain integer sort orders: the
// first 8 bytes of its key as a big-endian number (zero-padded,
// complemented for Desc), less the high bits every candidate shares
// and, if the rest does not fit, some low bits, on top; its index,
// which is its scan position, below. Where two words differ above the
// index they order the keys as bytes.Compare does; words that tie
// there — equal heads, or heads that differ only in bits the word had
// no room for — form runs, which are put in order by their whole keys.
// A top-k needs only the front of the order, so the words are first
// distributed by their top 8 head bits into 256 buckets (one counting
// pass), and a bucket is sorted only when the fetch pass reaches it.
//
// Candidates that arrive in key order already — an index whose leading
// component is the order-by field yields them so — skip all of that:
// they are handed out forward, or under Desc run by run from the last,
// each run of equal keys in scan order.
type keyFirst struct {
	cands []candidate
	keys  []byte
	// words are the candidates' words grouped by bucket, ends[b] the end
	// of bucket b; words[:sorted] are in order, and next hands out
	// words[at]. spill is the counting pass's scratch.
	words, spill []uint64
	ends         [256]int32
	at, sorted   int
	bucket, pos  int
	mask         uint64 // the index bits of a word
	desc         bool
	// inOrder records that every candidate's key is at least the one
	// before it; lo and hi then bound the run of equal keys a Desc
	// order is handing out.
	inOrder bool
	lo, hi  int
}

// reset empties the candidate buffer.
func (k *keyFirst) reset() {
	k.cands, k.keys, k.words = k.cands[:0], k.keys[:0], k.words[:0]
	k.inOrder = true
}

// add keeps one candidate; key is copied.
func (k *keyFirst) add(id storage.RecordID, key []byte, inside bool) {
	if k.inOrder && len(k.cands) > 0 && bytes.Compare(key, k.key(len(k.cands)-1)) < 0 {
		k.inOrder = false
	}
	off := int32(len(k.keys))
	k.keys = append(k.keys, key...)
	k.cands = append(k.cands, candidate{id: id, off: off, end: int32(len(k.keys)), inside: inside})
}

// key is candidate i's sort key.
func (k *keyFirst) key(i int) []byte {
	c := &k.cands[i]
	return k.keys[c.off:c.end]
}

// order builds the candidates' words and distributes them into their
// buckets; next then hands the candidates out in order.
func (k *keyFirst) order(desc bool) {
	n := len(k.cands)
	k.desc = desc
	if k.inOrder {
		k.at, k.lo, k.hi = 0, n, n
		if desc {
			k.at = n
		}
		return
	}
	k.spill = k.spill[:0]
	var diff uint64
	for i := range k.cands {
		h := head(k.key(i))
		if desc {
			h = ^h
		}
		k.spill = append(k.spill, h)
		diff |= h ^ k.spill[0]
	}
	shared := bits.LeadingZeros64(diff)
	k.pos, k.bucket, k.at, k.sorted = bits.Len(uint(n)), 0, 0, 0
	k.mask = 1<<k.pos - 1
	kept := min(64-shared, 64-k.pos)
	// A bucket is a function of the head bits alone, so a run never
	// spans two.
	top := k.pos + max(kept-8, 0)
	clear(k.ends[:])
	for i, h := range k.spill {
		w := h<<shared>>(64-kept)<<k.pos | uint64(i)
		k.spill[i] = w
		k.ends[w>>top]++
	}
	// ends[b] counted bucket b's words; it now holds the bucket's start
	// while its words are placed, which leaves it at the bucket's end.
	start := int32(0)
	for b, c := range k.ends {
		k.ends[b], start = start, start+c
	}
	k.words = slices.Grow(k.words[:0], n)[:n]
	for _, w := range k.spill {
		k.words[k.ends[w>>top]] = w
		k.ends[w>>top]++
	}
}

// head is the first 8 bytes of key as a big-endian number, zero-padded.
func head(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

// next is the index of the next candidate in order, or false when all
// have been handed out.
func (k *keyFirst) next() (int, bool) {
	if k.inOrder {
		return k.nextInOrder()
	}
	if k.at == k.sorted && !k.sortBucket() {
		return 0, false
	}
	k.at++
	return int(k.words[k.at-1] & k.mask), true
}

// nextInOrder is next over candidates that arrived in key order:
// forward, or under Desc the runs of equal keys from the last, each in
// scan order.
func (k *keyFirst) nextInOrder() (int, bool) {
	if !k.desc {
		if k.at == len(k.cands) {
			return 0, false
		}
		k.at++
		return k.at - 1, true
	}
	if k.at == k.hi {
		if k.lo == 0 {
			return 0, false
		}
		k.hi, k.lo = k.lo, k.lo-1
		for k.lo > 0 && bytes.Equal(k.key(k.lo-1), k.key(k.hi-1)) {
			k.lo--
		}
		k.at = k.lo
	}
	k.at++
	return k.at - 1, true
}

// sortBucket sorts the next bucket that holds words, or reports false
// when none is left.
func (k *keyFirst) sortBucket() bool {
	if k.at == len(k.words) {
		return false
	}
	for int(k.ends[k.bucket]) <= k.at {
		k.bucket++
	}
	k.sortRun(k.words[k.at:k.ends[k.bucket]])
	k.sorted = int(k.ends[k.bucket])
	return true
}

// sortRun sorts one bucket's words, then the runs of words that tie
// above the index by their whole keys.
func (k *keyFirst) sortRun(words []uint64) {
	if len(words) < 2 {
		return
	}
	slices.Sort(words)
	for i := 0; i < len(words); {
		j := i + 1
		for j < len(words) && words[j]>>k.pos == words[i]>>k.pos {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(words[i:j], func(a, b uint64) int {
				c := bytes.Compare(k.key(int(a&k.mask)), k.key(int(b&k.mask)))
				if k.desc {
					c = -c
				}
				if c == 0 {
					c = cmp.Compare(a, b)
				}
				return c
			})
		}
		i = j
	}
}

// rankItem is one retained match of an ordered execution: its encoded
// sort key, the borrowed document bytes, and its arrival sequence (the
// stable-sort tie-break).
type rankItem struct {
	key []byte
	doc bson.Raw
	seq int
}

// ranking retains the matches of an ordered execution and yields the
// first limit of the stable order (key, then arrival) — exactly the
// prefix of a stable sort over everything it was given. A key-first
// execution keeps matches that arrive in that order already; any other
// offers them in scan order, and the ranking prunes itself back to the
// best limit each time it holds twice that, so it stays O(limit); an
// offered match strictly worse than the bound (Opts.Bound) is dropped
// at once. limit 0 keeps everything (a full sort).
//
// Key buffers are owned by the slots and recycled across resets, so a
// warm ordered scan allocates only when a key outgrows its slot.
type ranking struct {
	items []rankItem
	n     int // live items in items[:n]
	limit int
	desc  bool
	bound []byte
	seq   int
	// offered is set once an item arrived through offer, out of order.
	offered bool
}

func (r *ranking) reset(limit int, desc bool, bound []byte) {
	r.drop(0)
	r.limit, r.desc, r.bound, r.seq, r.offered = limit, desc, bound, 0, false
}

// drop releases the items from i on, so no document stays pinned by a
// slot that is no longer live.
func (r *ranking) drop(i int) {
	for j := range r.items[i:r.n] {
		r.items[i+j].doc = nil
	}
	r.n = i
}

// keep appends one match that comes in order; key is borrowed (copied
// into the slot).
func (r *ranking) keep(doc bson.Raw, key []byte) {
	if r.n == len(r.items) {
		r.items = append(r.items, rankItem{})
	}
	it := &r.items[r.n]
	it.key = append(it.key[:0], key...)
	it.doc, it.seq = doc, r.seq
	r.n++
	r.seq++
}

// offer keeps one match of a scan-order stream, unless it is worse
// than the bound, pruning to the best limit once twice that many are
// held.
func (r *ranking) offer(doc bson.Raw, key []byte) {
	if worse(key, r.bound, r.desc) {
		return
	}
	r.keep(doc, key)
	r.offered = true
	if r.limit > 0 && r.n == 2*r.limit {
		r.sort()
		r.drop(r.limit)
	}
}

// sort orders the live items by (key under desc, seq).
func (r *ranking) sort() {
	desc := r.desc
	slices.SortFunc(r.items[:r.n], func(a, b rankItem) int {
		c := bytes.Compare(a.key, b.key)
		if desc {
			c = -c
		}
		if c == 0 {
			c = a.seq - b.seq
		}
		return c
	})
}

// finish sorts offered items into the final order and cuts them to the
// limit. The returned slice aliases the ranking and is valid until the
// next reset.
func (r *ranking) finish() []rankItem {
	if r.offered {
		r.sort()
	}
	if r.limit > 0 && r.n > r.limit {
		r.drop(r.limit)
	}
	return r.items[:r.n]
}

// scratch is the pooled per-execution working set: the B-tree
// iterator, the skip-scan resume buffer, the fetch batch, the document
// accumulator, an ordered execution's candidates and ranking, and the
// sort-key scratch buffer.
// Executions take one from the pool, run, copy the (exact-size) results
// out, and return it, so a warm query performs no per-scan allocations
// beyond the result itself.
type scratch struct {
	it       btree.Iterator
	resume   []byte
	batch    batch
	doc      bson.Raw // the document being matched
	docs     []bson.Raw
	keyFirst keyFirst
	rank     ranking
	keyBuf   []byte
	agg      aggAcc
	only     Plan // the filter's one candidate plan (onlyPlan)
}

// batch is the scan's queue of examined-but-unprocessed index entries
// (see exec.flush): fixed arrays, 2 KB, so filling it allocates
// nothing.
type batch struct {
	n    int
	ids  [fetchBatch]storage.RecordID
	seen [fetchBatch]int // the iterator's Examined() at each entry's key
	// keys are the entries' sort keys in a key-first fetch pass (see
	// exec.fetchSorted); unused otherwise.
	keys [fetchBatch][]byte
	// inside marks the entries whose keys lie in interior cells.
	inside [fetchBatch]bool
	raws   [fetchBatch][]byte
	sink   byte // where the touch pass's loads land
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
	s.rank.reset(0, false, nil)
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
	live := s.rank.finish()
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
