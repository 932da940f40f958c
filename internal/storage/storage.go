// Package storage implements the per-shard record store: documents
// are kept in their binary encoding, addressed by record ids, exactly
// like heap storage under a document store's B-tree indexes. Bytes are
// the only currency: a document is encoded once, where it enters the
// system, and InsertRaw takes ownership of that encoding; a fetch hands
// out the stored bytes themselves — no copy, no decode — and the query
// layer matches, sorts and aggregates on that encoded form, as the
// write path routes, indexes, splits, migrates and deletes on it.
// Nothing here can decode a document; each fetch is one unit of the
// docsExamined metric.
//
// Record ids are dense and never reused, so the store is a paged table
// indexed by id — a fetch is an array index, not a hash — and readers
// that examine many documents look them up a batch at a time under one
// acquisition of the lock (FetchRawBatch).
package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// RecordID identifies a stored document within one Store. Ids are
// never reused; a deleted slot stays dead.
type RecordID uint64

// pageSlots is the number of record slots in one table page: 24 KiB of
// slice headers, small enough that growth never copies more than the
// page directory and that a page whose records all died is worth
// handing back.
const pageSlots = 1024

// page is one fixed run of record slots plus the number that are live.
type page struct {
	slots [pageSlots][]byte
	live  int
}

// Store is an append-only record store with deletion, safe for
// concurrent use.
//
// Record ids are dense (assigned from 1 upwards) and never reused, so
// the store is a table indexed by id rather than a map keyed by it: a
// directory of fixed-size pages whose slot id-1 holds the very slice
// InsertRaw was handed. A lookup is two array indexings — no hash, no
// bucket probe — and the pages are the only per-record overhead (one
// slice header per id ever assigned on a live page). A page whose last
// record is deleted is dropped, so chunk migrations hand their table
// memory back; PutRaw at an arbitrary id allocates only the page it
// lands on. What the table relies on is that density:
// the directory has one pointer per pageSlots ids up to the largest id
// ever stored, so ids must come from the store's own counter (or from a
// snapshot of one), never from an arbitrary 64-bit space.
//
// Concurrency: the table is guarded by mu (writes exclusive, reads
// shared). The executor takes the read side once per batch of examined
// documents (FetchRawBatch), not once per document. The size counter is
// an atomic so Bytes never takes the lock.
type Store struct {
	mu     sync.RWMutex
	pages  []*page // pages[i] covers ids i*pageSlots+1 .. (i+1)*pageSlots; nil = no live record
	live   int
	nextID RecordID
	bytes  atomic.Int64
}

// NewStore returns an empty record store.
func NewStore() *Store {
	return &Store{}
}

// slot returns the record stored at id, nil when there is none (id 0,
// an id beyond the table, a dropped page or a deleted record). Callers
// hold mu.
func (s *Store) slot(id RecordID) []byte {
	i := uint64(id - 1) // id 0 wraps past every page
	pi := i / pageSlots
	if pi >= uint64(len(s.pages)) {
		return nil
	}
	p := s.pages[pi]
	if p == nil {
		return nil
	}
	return p.slots[i%pageSlots]
}

// put stores raw at the free slot of id (id >= 1), allocating its page
// on demand. Callers hold mu exclusively.
func (s *Store) put(id RecordID, raw []byte) {
	if raw == nil {
		raw = []byte{} // nil marks a free slot
	}
	i := uint64(id - 1)
	pi := i / pageSlots
	for uint64(len(s.pages)) <= pi {
		s.pages = append(s.pages, nil)
	}
	p := s.pages[pi]
	if p == nil {
		p = new(page)
		s.pages[pi] = p
	}
	p.slots[i%pageSlots] = raw
	p.live++
	s.live++
	s.bytes.Add(int64(len(raw)))
}

// InsertRaw stores an encoded document and returns its record id. The
// store owns raw from here on and hands out that very slice on every
// fetch: the caller guarantees it is a valid canonical encoding
// (bson.Validate) and neither modifies nor reuses it afterwards — an
// edge that reads frames into a reused buffer must pass a copy.
func (s *Store) InsertRaw(raw []byte) RecordID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := s.nextID
	s.put(id, raw)
	return id
}

// PutRaw stores an encoded document under a specific record id — the
// snapshot-restore path, which must reproduce the exact ids the
// journal refers to. It fails if the id is taken and advances nextID
// past id.
func (s *Store) PutRaw(id RecordID, raw []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == 0 {
		return fmt.Errorf("storage: record id 0 is never assigned")
	}
	if s.slot(id) != nil {
		return fmt.Errorf("storage: record %d already exists", id)
	}
	s.put(id, raw)
	if id > s.nextID {
		s.nextID = id
	}
	return nil
}

// SetNextID forces the id counter so that ids assigned after a
// restore continue exactly where the snapshotted store stopped (the
// last assigned id may exceed the largest live id when the newest
// records were deleted).
func (s *Store) SetNextID(next RecordID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if next > s.nextID {
		s.nextID = next
	}
}

// NextID returns the last assigned record id (0 when none was).
func (s *Store) NextID() RecordID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nextID
}

// FetchRaw returns the encoded form of the document at id. The
// returned slice must not be modified.
func (s *Store) FetchRaw(id RecordID) ([]byte, bool) {
	s.mu.RLock()
	raw := s.slot(id)
	s.mu.RUnlock()
	return raw, raw != nil
}

// FetchRawBatch looks up every id under one acquisition of the read
// lock: out[i] is the record at ids[i], nil when there is none. out
// must be at least as long as ids. The returned slices are the stored
// bytes and must not be modified.
func (s *Store) FetchRawBatch(ids []RecordID, out [][]byte) {
	out = out[:len(ids)]
	s.mu.RLock()
	for i, id := range ids {
		out[i] = s.slot(id)
	}
	s.mu.RUnlock()
}

// Delete removes the record, reporting whether it existed.
func (s *Store) Delete(id RecordID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	raw := s.slot(id)
	if raw == nil {
		return false
	}
	i := uint64(id - 1)
	p := s.pages[i/pageSlots]
	p.slots[i%pageSlots] = nil
	p.live--
	if p.live == 0 {
		s.pages[i/pageSlots] = nil
	}
	s.live--
	s.bytes.Add(-int64(len(raw)))
	return true
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live
}

// Bytes returns the total encoded size of live records — the
// "data size" the Table 6 experiment reports.
func (s *Store) Bytes() int64 {
	return s.bytes.Load()
}

// Walk visits every live record in RecordID (insertion) order,
// stopping early if fn returns false. The deterministic order is what
// makes collection-scan results, index backfills and id lookups
// reproducible run to run — the parallel router's "same answer at
// every pool width" guarantee builds on it. The table is already in id
// order, so the walk allocates nothing. It holds the read lock during
// the walk; fn must not call back into the store.
func (s *Store) Walk(fn func(id RecordID, raw []byte) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for pi, p := range s.pages {
		if p == nil {
			continue
		}
		base := RecordID(pi)*pageSlots + 1
		for i := range p.slots {
			if raw := p.slots[i]; raw != nil && !fn(base+RecordID(i), raw) {
				return
			}
		}
	}
}
