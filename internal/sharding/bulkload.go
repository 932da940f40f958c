package sharding

// Bulk load: Load places a whole data set on keys alone, then stores
// each document once, in its final shard.
//
// Where a document ends up is a fixed function of insertion order —
// routing, size splits and the auto-balance cadence — and every one of
// those decisions reads only chunk bounds, counts and the shard-key
// tuples of one chunk (placement.go). So on a cluster that has never
// stored a document, Load replays the per-document insert sequence of
// InsertBatchRaw + Balance on a key model that holds each document's
// tuple and size and never a collection (pass 1), and only then stores
// every survivor at the record id the model gave it, shards in
// parallel (pass 2). The result — chunk map, counters, record ids,
// index key sequences, chunk cells, fingerprint — equals the
// per-document path's (TestBulkLoadMatchesIncremental); what differs is
// that no document is stored and then moved, and no chunk's cells are
// rebuilt.

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// loadSlice is how many documents one of Load's journal records
// carries: the slice the per-document path applies as one
// InsertBatchRaw.
const loadSlice = 256

// Load stores encoded documents and runs a final balancing round —
// the paper's loading procedure, bulk insertion with the balancer
// running. The outcome, and the journal a durable cluster writes (one
// opInsertBatch record per 256 documents, then one opBalance), are
// those of InsertBatchRaw on each 256-document slice followed by
// Balance, so splits and migrations fall where inserting the documents
// one at a time puts them. A document an insert would refuse (no _id,
// a key an index cannot build), or on a durable cluster a slice too
// large for one journal record, refuses the whole load before anything
// is applied. The cluster stores copies: docs stay the caller's.
//
// A sharded cluster that has never stored a document takes the bulk
// path: it places every document on keys alone first and then stores
// each once, in its final shard. Any other cluster applies the slices
// one by one. A closed cluster refuses the load with ErrClosed.
func (c *Cluster) Load(docs [][]byte) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	for start := 0; c.dur != nil && start < len(docs); start += loadSlice {
		if err := CheckBatchRecord("", docs[start:min(start+loadSlice, len(docs))]); err != nil {
			c.mu.Unlock()
			return fmt.Errorf("sharding: loading documents from %d: %w", start, err)
		}
	}
	if len(docs) == 0 || !c.neverStoredLocked() {
		c.mu.Unlock()
		return c.loadSlices(docs)
	}
	defer c.mu.Unlock()
	m, err := c.planLoadLocked(docs)
	if err != nil {
		return err
	}
	if err := c.journalLoadLocked(docs); err != nil {
		return err
	}
	return c.storeLoadLocked(m)
}

// neverStoredLocked reports whether the cluster is sharded and no shard
// has ever assigned a record id — the state the key model starts from.
func (c *Cluster) neverStoredLocked() bool {
	if !c.sharded || c.fpDocs != 0 {
		return false
	}
	for _, s := range c.shards {
		if s.Coll.Store().NextID() != 0 {
			return false
		}
	}
	return true
}

// loadSlices is Load's per-document path: check every document, then
// InsertBatchRaw each slice and Balance.
func (c *Cluster) loadSlices(docs [][]byte) error {
	coll := c.shards[0].Coll // every shard has the same indexes
	for i, raw := range docs {
		if err := coll.CheckRaw(raw); err != nil {
			return fmt.Errorf("sharding: loading document %d: %w", i, err)
		}
	}
	for start := 0; start < len(docs); start += loadSlice {
		end := min(start+loadSlice, len(docs))
		slice := make([][]byte, 0, end-start)
		for _, raw := range docs[start:end] {
			slice = append(slice, bytes.Clone(raw))
		}
		if _, _, err := c.InsertBatchRaw("", slice); err != nil {
			return fmt.Errorf("sharding: loading documents %d-%d: %w", start, end-1, err)
		}
	}
	return c.Balance()
}

// journalLoadLocked writes the records the per-document path would:
// one opInsertBatch per slice, each committed, then the opBalance.
func (c *Cluster) journalLoadLocked(docs [][]byte) error {
	if c.dur == nil {
		return nil
	}
	for start := 0; start < len(docs); start += loadSlice {
		c.journal(opInsertBatch, encodeInsertBatch("", docs[start:min(start+loadSlice, len(docs))]))
		if err := c.commitDur(); err != nil {
			return err
		}
	}
	return c.journalCommit(opBalance, nil)
}

// loadModel is pass 1: the cluster's placement replayed on keys alone.
// It is a chunkStore over documents that are numbered, not stored: a
// document has a tuple, a size and, like a stored one, a record id on
// the shard that owns its chunk. An insert takes the next id on its
// shard; a migration gives the chunk's documents fresh ids on the
// recipient in the order the cluster moves them. So the model ends
// with every document's final record id and every shard's id counter.
type loadModel struct {
	chunkMap
	key    ShardKey
	docs   [][]byte
	tuples [][]byte // each document's shard-key tuple

	id   []storage.RecordID // each document's record id on its shard now
	byID [][]int32          // per shard: the document at each record id, -1 once it moved away

	members map[*Chunk]*chunkDocs
}

// chunkDocs are the documents of one model chunk.
type chunkDocs struct {
	docs   []int32
	sorted int // docs[:sorted] are in (tuple, record id) order: the shard-key index's
}

func (m *loadModel) compareKeyOrder(a, b int32) int {
	if c := bytes.Compare(m.tuples[a], m.tuples[b]); c != 0 {
		return c
	}
	return cmp.Compare(m.id[a], m.id[b])
}

// add appends a document that just took the largest record id on the
// chunk's shard: it extends the ordered prefix when its tuple sorts
// last.
func (m *loadModel) add(cd *chunkDocs, i int32) {
	n := len(cd.docs)
	if cd.sorted == n && (n == 0 || bytes.Compare(m.tuples[cd.docs[n-1]], m.tuples[i]) <= 0) {
		cd.sorted++
	}
	cd.docs = append(cd.docs, i)
}

// inKeyOrder puts the chunk's documents in the order its shard-key
// index lists them: the unordered tail is sorted, then merged into the
// ordered prefix.
func (m *loadModel) inKeyOrder(cd *chunkDocs) {
	if cd.sorted == len(cd.docs) {
		return
	}
	head, tail := cd.docs[:cd.sorted], cd.docs[cd.sorted:]
	slices.SortFunc(tail, m.compareKeyOrder)
	if len(head) > 0 && m.compareKeyOrder(head[len(head)-1], tail[0]) > 0 {
		merged := make([]int32, 0, cap(cd.docs))
		for len(head) > 0 && len(tail) > 0 {
			if m.compareKeyOrder(head[0], tail[0]) <= 0 {
				merged, head = append(merged, head[0]), head[1:]
			} else {
				merged, tail = append(merged, tail[0]), tail[1:]
			}
		}
		cd.docs = append(append(merged, head...), tail...)
	}
	cd.sorted = len(cd.docs)
}

// assign gives document i the next record id on shard s.
func (m *loadModel) assign(s int, i int32) {
	m.byID[s] = append(m.byID[s], i)
	m.id[i] = storage.RecordID(len(m.byID[s]))
}

func (m *loadModel) docsOf(ch *Chunk) *chunkDocs {
	cd := m.members[ch]
	if cd == nil {
		cd = &chunkDocs{}
		m.members[ch] = cd
	}
	return cd
}

func (m *loadModel) chunkTuples(ch *Chunk) func(visit func(tuple []byte) bool) {
	cd := m.docsOf(ch)
	m.inKeyOrder(cd)
	return func(visit func(tuple []byte) bool) {
		for _, i := range cd.docs {
			if !visit(m.tuples[i]) {
				return
			}
		}
	}
}

func (m *loadModel) afterSplit(left, right *Chunk) {
	cd := m.docsOf(left)
	m.inKeyOrder(cd)
	k := sort.Search(len(cd.docs), func(k int) bool {
		return bytes.Compare(m.tuples[cd.docs[k]], right.Min) >= 0
	})
	m.members[right] = &chunkDocs{docs: slices.Clone(cd.docs[k:]), sorted: len(cd.docs) - k}
	cd.docs, cd.sorted = cd.docs[:k], k
	// No document is stored yet: the right half's cells are empty,
	// and exact, until pass 2 adds its documents to them.
	right.sumExact = true
}

// moveDocs renumbers the chunk's documents on the recipient in the
// order Cluster.chunkRecords lists them: shard-key index order under
// range sharding, record-id order (a store walk) under hashed.
func (m *loadModel) moveDocs(ch *Chunk, to int) {
	cd := m.docsOf(ch)
	if m.key.Strategy == RangeSharding {
		m.inKeyOrder(cd)
	} else {
		slices.SortFunc(cd.docs, func(a, b int32) int { return cmp.Compare(m.id[a], m.id[b]) })
		cd.sorted = 0
	}
	from := ch.Shard
	for _, i := range cd.docs {
		m.byID[from][m.id[i]-1] = -1
		m.assign(to, i)
	}
}

// planLoadLocked is pass 1: check every document and derive its
// tuple (in parallel), then replay the per-document insert sequence
// and the final Balance on a copy of the chunk map. The cluster is left
// untouched.
func (c *Cluster) planLoadLocked(docs [][]byte) (*loadModel, error) {
	m := &loadModel{
		chunkMap: c.chunkMap,
		key:      c.key,
		docs:     docs,
		tuples:   make([][]byte, len(docs)),
		id:       make([]storage.RecordID, len(docs)),
		byID:     make([][]int32, len(c.shards)),
		members:  make(map[*Chunk]*chunkDocs),
	}
	m.chunks = make([]*Chunk, len(c.chunks))
	for i, ch := range c.chunks {
		cp := *ch
		m.chunks[i] = &cp
	}
	if err := c.deriveTuples(m); err != nil {
		return nil, err
	}
	for i, raw := range docs {
		tuple := m.tuples[i]
		ci := m.findChunk(tuple)
		if ci < 0 {
			return nil, fmt.Errorf("sharding: loading document %d: no chunk for tuple (shard key %s)", i, c.key)
		}
		ch := m.chunks[ci]
		m.assign(ch.Shard, int32(i))
		m.add(m.docsOf(ch), int32(i))
		m.placed(ci, len(raw), tuple, m)
	}
	m.balance(m)
	return m, nil
}

// deriveTuples checks every document as an insert would and fills in
// its shard-key tuple, on Options.Parallel workers over blocks of
// documents; each block's tuples share one buffer. The error names the
// first refused document.
func (c *Cluster) deriveTuples(m *loadModel) error {
	const block = 4096
	coll := c.shards[0].Coll // every shard has the same indexes
	errs := make([]error, (len(m.docs)+block-1)/block)
	parallel(c.opts.Parallel, len(errs), func(b int) {
		lo, hi := b*block, min((b+1)*block, len(m.docs))
		var probe tupleBuf
		buf := make([]byte, 0, (hi-lo)*len(c.key.AppendTupleRaw(probe[:0], m.docs[lo])))
		for i := lo; i < hi; i++ {
			if err := coll.CheckRaw(m.docs[i]); err != nil {
				errs[b] = fmt.Errorf("sharding: loading document %d: %w", i, err)
				return
			}
			start := len(buf)
			buf = c.key.AppendTupleRaw(buf, m.docs[i])
			m.tuples[i] = buf[start:len(buf):len(buf)]
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// parallel runs fn(0) … fn(n-1) on at most workers goroutines and
// returns when all are done.
func parallel(workers, n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// storeLoadLocked is pass 2: every shard stores its documents at the
// model's record ids, in ascending id order — their order of arrival
// on that shard — indexes them, and adds each to its chunk's cells
// once; shards run in parallel on Options.Parallel workers. Each
// document is stored as a copy made in that order, so a shard's
// records are allocated together in id order — a migrated chunk's in
// key order, as a migration lays them out (DESIGN.md §8).
func (c *Cluster) storeLoadLocked(m *loadModel) error {
	sums := make([]uint64, len(c.shards))
	errs := make([]error, len(c.shards))
	parallel(c.opts.Parallel, len(c.shards), func(s int) {
		sums[s], errs[s] = c.storeShardLocked(m, s)
	})
	c.chunkMap = m.chunkMap
	c.fpDocs += len(m.docs)
	for s := range c.shards {
		c.fpSum += sums[s]
		c.bumpEpochLocked(s)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// storeShardLocked stores shard s's documents and adds them to the
// cells of the chunks they end in (every one on s), returning the
// fingerprint terms it added.
func (c *Cluster) storeShardLocked(m *loadModel, s int) (sum uint64, err error) {
	coll := c.shards[s].Coll
	for k, i := range m.byID[s] {
		if i < 0 {
			continue
		}
		raw := make([]byte, len(m.docs[i]))
		copy(raw, m.docs[i])
		if err := coll.InsertRawAt(storage.RecordID(k+1), raw); err != nil {
			return sum, err
		}
		sum += docChecksum(raw)
		c.summaryAddLocked(m.chunks[m.findChunk(m.tuples[i])], raw)
	}
	coll.Store().SetNextID(storage.RecordID(len(m.byID[s])))
	return sum, nil
}
