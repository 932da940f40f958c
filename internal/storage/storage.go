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
package storage

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// RecordID identifies a stored document within one Store. Ids are
// never reused; a deleted slot stays dead.
type RecordID uint64

// Hook observes the store's mutations with the exact bytes that were
// stored — the journaling seam of the durability subsystem. The
// sharding layer installs one hook per shard store so every
// insert/delete is framed into that shard's write-ahead journal
// before the enclosing cluster operation returns.
//
// Hook methods run while the store's write lock is held, so they see
// mutations in exactly the order they are applied; they must be cheap
// and must not call back into the store.
type Hook interface {
	// Inserted fires after a record is stored; raw is the stored
	// encoding and must not be modified or retained past the call.
	Inserted(id RecordID, raw []byte)
	// Deleted fires after a record is removed; raw is the encoding it
	// had.
	Deleted(id RecordID, raw []byte)
}

// Store is an append-only record store with deletion, safe for
// concurrent use.
//
// Concurrency: the records map is guarded by mu (writes exclusive,
// reads shared). The size counter is an atomic so Bytes never takes
// the lock.
type Store struct {
	mu      sync.RWMutex
	records map[RecordID][]byte
	nextID  RecordID
	hook    Hook
	bytes   atomic.Int64
}

// NewStore returns an empty record store.
func NewStore() *Store {
	return &Store{records: make(map[RecordID][]byte)}
}

// SetHook installs (or clears, with nil) the mutation hook. Writers
// must be quiescent while the hook changes — in the cluster the
// durable-open path installs hooks before any write runs.
func (s *Store) SetHook(h Hook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hook = h
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
	s.records[id] = raw
	s.bytes.Add(int64(len(raw)))
	if s.hook != nil {
		s.hook.Inserted(id, raw)
	}
	return id
}

// PutRaw stores an encoded document under a specific record id — the
// snapshot-restore path, which must reproduce the exact ids the
// journal refers to. It fails if the id is taken, advances nextID
// past id, and does not fire the hook (restored records were already
// journaled in their first life).
func (s *Store) PutRaw(id RecordID, raw []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.records[id]; exists {
		return fmt.Errorf("storage: record %d already exists", id)
	}
	s.records[id] = raw
	if id > s.nextID {
		s.nextID = id
	}
	s.bytes.Add(int64(len(raw)))
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
	raw, ok := s.records[id]
	s.mu.RUnlock()
	return raw, ok
}

// Delete removes the record, reporting whether it existed.
func (s *Store) Delete(id RecordID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, ok := s.records[id]
	if !ok {
		return false
	}
	s.bytes.Add(-int64(len(raw)))
	delete(s.records, id)
	if s.hook != nil {
		s.hook.Deleted(id, raw)
	}
	return true
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.records)
}

// Bytes returns the total encoded size of live records — the
// "data size" the Table 6 experiment reports.
func (s *Store) Bytes() int64 {
	return s.bytes.Load()
}

// Walk visits every live record in RecordID (insertion) order,
// stopping early if fn returns false. The deterministic order is what
// makes collection-scan results, index backfills and delete lookups
// reproducible run to run — the parallel router's "same answer at
// every pool width" guarantee builds on it. It holds the read lock
// during the walk; fn must not call back into the store.
func (s *Store) Walk(fn func(id RecordID, raw []byte) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]RecordID, 0, len(s.records))
	for id := range s.records {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if !fn(id, s.records[id]) {
			return
		}
	}
}
