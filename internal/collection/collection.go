// Package collection combines a record store with its secondary
// indexes: the unit of data a single shard owns. It maintains the
// mandatory _id index, keeps every index consistent on insert and
// delete, and exposes the scan surface the query planner builds plans
// against.
//
// Every write works on the encoded document: InsertRaw stores the
// caller's bytes and builds each index key from them, Delete and the
// index backfill read keys back out of the stored bytes. Insert is
// Marshal followed by InsertRaw; no path decodes a document.
package collection

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bson"
	"repro/internal/index"
	"repro/internal/storage"
)

// IDIndexName is the name of the mandatory _id index, which exists on
// every collection and cannot be dropped.
const IDIndexName = "_id_"

// Collection is a set of documents with secondary indexes. It is safe
// for concurrent readers; writes are serialised internally.
//
// Concurrency: mu guards the index *list* (CreateIndex appends,
// Index/Indexes copy under RLock); the store has its own internal
// lock, and each index's tree is read-only outside Insert/Delete/
// CreateIndex. The parallel query router executes on many collections
// (and, for batches, many queries on one collection) from concurrent
// goroutines — all of them pure readers here. The PlanCache is a
// sync.Map so those readers may also record plan-cache decisions
// without taking mu.
type Collection struct {
	mu      sync.RWMutex
	name    string
	store   *storage.Store
	indexes []*index.Index

	// PlanCache is an opaque query-shape → winning-plan cache owned
	// by the query layer, stored here so its lifetime matches the
	// collection's.
	PlanCache sync.Map
	// PlanCacheEntries counts the entries in PlanCache (a sync.Map has
	// no length), so the query layer can cap it.
	PlanCacheEntries atomic.Int64

	// PlanCacheHits and PlanCacheMisses count lookups against
	// PlanCache, maintained by the query layer and surfaced through
	// explain output so the warm path's trial-free executions are
	// observable.
	PlanCacheHits   atomic.Int64
	PlanCacheMisses atomic.Int64
}

// New returns an empty collection with its _id index.
func New(name string) *Collection {
	idIdx, err := index.New(index.Definition{
		Name:   IDIndexName,
		Fields: []index.Field{{Name: "_id", Kind: index.Ascending}},
	})
	if err != nil {
		panic(err) // static definition, cannot fail
	}
	return &Collection{
		name:    name,
		store:   storage.NewStore(),
		indexes: []*index.Index{idIdx},
	}
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// CreateIndex adds a secondary index and backfills it from the
// existing documents.
func (c *Collection) CreateIndex(def index.Definition) (*index.Index, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ix := range c.indexes {
		if ix.Def().Name == def.Name {
			return nil, fmt.Errorf("collection %s: index %q already exists", c.name, def.Name)
		}
	}
	ix, err := index.New(def)
	if err != nil {
		return nil, err
	}
	var backfillErr error
	c.store.Walk(func(id storage.RecordID, raw []byte) bool {
		backfillErr = ix.InsertRaw(raw, id)
		return backfillErr == nil
	})
	if backfillErr != nil {
		return nil, fmt.Errorf("collection %s: backfilling %q: %w", c.name, def.Name, backfillErr)
	}
	c.indexes = append(c.indexes, ix)
	return ix, nil
}

// Indexes returns the current indexes, as a view no later CreateIndex
// changes; the slice must not be modified.
func (c *Collection) Indexes() []*index.Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.indexes[:len(c.indexes):len(c.indexes)]
}

// Index returns the index with the given name, or nil.
func (c *Collection) Index(name string) *index.Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, ix := range c.indexes {
		if ix.Def().Name == name {
			return ix
		}
	}
	return nil
}

// IndexBySpec returns the first index whose definition renders as
// spec (index.Index.Spec), or nil — how a cached plan, remembered by
// its spec, finds its index again.
func (c *Collection) IndexBySpec(spec string) *index.Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, ix := range c.indexes {
		if ix.Spec() == spec {
			return ix
		}
	}
	return nil
}

// Insert encodes the document and stores it: InsertRaw on its
// encoding. The document must already carry an _id field.
func (c *Collection) Insert(doc *bson.Document) (storage.RecordID, error) {
	return c.InsertRaw(bson.Marshal(doc))
}

// InsertRaw stores the encoded document and adds it to every index,
// building the keys from the bytes. The document must carry an _id
// field. The collection owns raw afterwards (storage.Store.InsertRaw):
// it must be a valid canonical encoding that the caller neither
// modifies nor reuses.
func (c *Collection) InsertRaw(raw []byte) (storage.RecordID, error) {
	if _, ok := bson.Raw(raw).LookupRaw("_id"); !ok {
		return 0, fmt.Errorf("collection %s: document missing _id", c.name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.store.InsertRaw(raw)
	for i, ix := range c.indexes {
		if err := ix.InsertRaw(raw, id); err != nil {
			// Roll back what we did so the collection stays
			// consistent.
			for _, undo := range c.indexes[:i] {
				_, _ = undo.RemoveRaw(raw, id)
			}
			c.store.Delete(id)
			return 0, err
		}
	}
	return id, nil
}

// RestoreRaw re-stores an encoded document under its original record
// id and indexes it — the snapshot-restore path.
// Restores must run before secondary indexes are recreated
// (CreateIndex backfills them from the store), so typically only the
// _id index is live here; any index that does exist is kept
// consistent. The bytes come from a snapshot, so they are validated
// here; the collection owns them afterwards.
func (c *Collection) RestoreRaw(id storage.RecordID, raw []byte) error {
	if _, err := bson.Validate(raw); err != nil {
		return fmt.Errorf("collection %s: restoring record %d: %w", c.name, id, err)
	}
	return c.InsertRawAt(id, raw)
}

// InsertRawAt stores an encoded document under a record id the caller
// chose and adds it to every index: InsertRaw without the id counter,
// for callers that reproduce ids decided elsewhere (a snapshot restore,
// a bulk load). The id must be free; the counter advances past it
// (storage.Store.PutRaw). The bytes are trusted like InsertRaw's, and
// the collection owns them afterwards.
func (c *Collection) InsertRawAt(id storage.RecordID, raw []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.store.PutRaw(id, raw); err != nil {
		return fmt.Errorf("collection %s: %w", c.name, err)
	}
	for _, ix := range c.indexes {
		if err := ix.InsertRaw(raw, id); err != nil {
			return fmt.Errorf("collection %s: storing record %d into %q: %w",
				c.name, id, ix.Def().Name, err)
		}
	}
	return nil
}

// CheckRaw reports the error InsertRaw would return for the encoded
// document, storing nothing: a missing _id, or a key an index cannot
// build from it.
func (c *Collection) CheckRaw(raw []byte) error {
	if _, ok := bson.Raw(raw).LookupRaw("_id"); !ok {
		return fmt.Errorf("collection %s: document missing _id", c.name)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, ix := range c.indexes {
		if err := ix.CheckRaw(raw); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes the document at id from the store and all indexes,
// reading each index key back out of the stored bytes.
func (c *Collection) Delete(id storage.RecordID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	raw, ok := c.store.FetchRaw(id)
	if !ok {
		return fmt.Errorf("collection %s: record %d not found", c.name, id)
	}
	for _, ix := range c.indexes {
		if _, err := ix.RemoveRaw(raw, id); err != nil {
			return err
		}
	}
	c.store.Delete(id)
	return nil
}

// Len returns the number of documents.
func (c *Collection) Len() int { return c.store.Len() }

// DataBytes returns the total encoded document size.
func (c *Collection) DataBytes() int64 { return c.store.Bytes() }

// CompressedDataBytes estimates the block-compressed document size.
func (c *Collection) CompressedDataBytes() int64 { return c.store.CompressedBytes() }

// IndexBytes returns the summed prefix-compressed size estimate of
// every index.
func (c *Collection) IndexBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var total int64
	for _, ix := range c.indexes {
		total += ix.SizeEstimate()
	}
	return total
}

// Store exposes the underlying record store for full scans.
func (c *Collection) Store() *storage.Store { return c.store }
