package sharding

// TTL retention: bulk expiry of the oldest documents, built on the
// B+tree's blind subtree drop (Index.DropBelow). Designed to run from
// a background loop while ingest and queries are in flight — it takes
// the same cluster write lock every write takes, so it serializes
// with inserts, splits and migrations.
//
// Durability follows the batch-insert pattern: ONE opDropBelow record
// carrying the cutoff prefix is journaled before anything is dropped.
// The drop is a deterministic function of cluster state, so replaying
// the record reproduces the exact deletions and chunk-map prune.

import (
	"bytes"
	"fmt"

	"repro/internal/index"
	"repro/internal/storage"
)

// DropBelowShardKey removes every document whose shard-key tuple
// sorts strictly below the encoded prefix — the retention primitive
// for time-leading range shard keys, where the prefix is an encoded
// cutoff date. The shard-key index is trimmed with one blind
// DropBelow per shard (O(height + dropped pages)); the affected
// records are then deleted through the normal collection path so the
// store, the remaining indexes and the chunk statistics all stay
// consistent.
//
// It returns the number of documents dropped. Only range-sharded
// collections support it: hashed tuples do not order by time.
func (c *Cluster) DropBelowShardKey(prefix []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped, err := c.dropBelowLocked(prefix)
	return dropped, c.finishWriteLocked(err)
}

// dropBelowLocked journals and applies one retention drop; the caller
// holds the write lock and commits the journal afterwards.
func (c *Cluster) dropBelowLocked(prefix []byte) (int, error) {
	if !c.sharded {
		return 0, fmt.Errorf("sharding: DropBelowShardKey on an unsharded collection")
	}
	if c.key.Strategy != RangeSharding {
		return 0, fmt.Errorf("sharding: DropBelowShardKey requires range sharding (key %s)", c.key)
	}
	c.journal(opDropBelow, appendBytes(nil, prefix))
	dropped := 0
	for _, s := range c.shards {
		ix := s.Coll.Index(ShardKeyIndexName)
		iv := index.Interval{
			Low:  boundInclude(c.key.MinTuple()),
			High: boundExclude(prefix),
		}
		var ids []storage.RecordID
		ix.ScanInterval(iv, func(_ []byte, id storage.RecordID) bool {
			ids = append(ids, id)
			return true
		})
		// Blind bulk trim first: the per-record deletes below then find
		// their shard-key entries already gone (Index.Remove tolerates
		// that) and clean up the store and the remaining indexes.
		ix.DropBelow(prefix)
		for _, id := range ids {
			if err := c.removeLocked(s.Coll, id); err != nil {
				return dropped, err
			}
			dropped++
		}
	}
	c.pruneChunksBelowLocked(prefix)
	return dropped, nil
}

// pruneChunksBelowLocked merges now-empty chunks whose whole range
// lies below the retention prefix into their right neighbour, so the
// chunk map does not accumulate one dead chunk per retention cycle
// forever. The merge only changes metadata (Min bounds); document
// placement is untouched.
func (c *Cluster) pruneChunksBelowLocked(prefix []byte) {
	for len(c.chunks) > 1 {
		ch := c.chunks[0]
		if ch.Docs > 0 || bytes.Compare(ch.Max, prefix) > 0 {
			return
		}
		c.chunks[1].Min = ch.Min
		c.chunks = c.chunks[1:]
	}
}

func decodeDropBelow(body []byte) ([]byte, error) {
	d := &decoder{buf: body}
	prefix := d.bytesCopy()
	if d.err != nil {
		return nil, fmt.Errorf("sharding: corrupt drop-below record: %w", d.err)
	}
	return prefix, nil
}
