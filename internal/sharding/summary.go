package sharding

// Per-chunk sketch summaries: the router's prove-empty pruning layer.
//
// Every chunk of a range-sharded collection carries a small sketch
// (counting bloom filter + count-min, internal/sketch) over the coarse
// cells of its documents' leading shard-key values — for the paper's
// Hilbert approaches the cell is the order-k curve cell, obtained by
// right-shifting the d-value (Hilbert indices are hierarchical, so the
// top bits of a d-value ARE its coarse cell). The summaries are
// maintained incrementally on every insert and delete, move wholesale
// with chunk migrations (ownership changes, content does not), and are
// rebuilt from the data on splits and recovery.
//
// The router consults them after range extraction: a chunk whose
// byte-range overlaps the query may still be provably empty over the
// query's cell range — chunk ranges cover the whole key space, not the
// subset of it that holds documents. Pruning is prove-empty only:
// bloom false positives cost a wasted shard visit, never a wrong
// answer, and the counting filter's sticky saturation guarantees no
// false negatives even after arbitrarily many deletes.

import (
	"repro/internal/bson"
	"repro/internal/query"
	"repro/internal/sketch"
	"repro/internal/storage"
)

// summaryExpectedCells sizes a fresh per-chunk sketch: the expected
// number of DISTINCT coarse cells in one chunk. Chunks are bounded by
// ChunkMaxBytes and the shift is chosen so cells are coarse, so a few
// hundred distinct cells per chunk is generous; the sketch degrades
// gracefully (higher FP rate, still no false negatives) beyond it.
const summaryExpectedCells = 256

// summaryMaxProbe bounds the per-chunk work of a range consultation:
// a query cell range wider than this is answered "may contain" without
// probing (wide ranges almost never prove empty anyway).
const summaryMaxProbe = 64

// cellRange is an inclusive [Lo, Hi] range of coarse cells derived
// from the query's bounds on the leading shard-key field.
type cellRange struct {
	Lo, Hi uint64
}

// summariesOnLocked reports whether per-chunk summaries are being
// maintained — and so whether the router prunes on them: explicitly
// enabled, sharded, and range-sharded (hashed tuples scatter cells, so
// there is nothing coherent to summarise).
func (c *Cluster) summariesOnLocked() bool {
	return c.opts.SummaryShift > 0 && c.sharded && c.key.Strategy == RangeSharding
}

// summaryCellLocked maps one encoded document to its coarse cell,
// reading the leading shard-key value straight from the bytes. ok is
// false when that value is missing or not a non-negative int64 — such a
// document cannot be summarised, and its chunk must never be pruned.
func (c *Cluster) summaryCellLocked(raw bson.Raw) (uint64, bool) {
	v, ok := raw.LookupRaw(c.key.Fields[0])
	if !ok {
		return 0, false
	}
	iv, ok := v.Int64()
	if !ok || iv < 0 {
		// Negative values break the uint64 shift's monotonicity; treat
		// them as unsummarisable rather than risk a wrong cell.
		return 0, false
	}
	return uint64(iv) >> uint(c.opts.SummaryShift), true
}

// summaryAddLocked folds one inserted document into its chunk's sketch.
func (c *Cluster) summaryAddLocked(ch *Chunk, raw []byte) {
	if !c.summariesOnLocked() {
		return
	}
	if ch.sum == nil {
		ch.sum = sketch.New(summaryExpectedCells)
		ch.sumExact = true
	}
	cell, ok := c.summaryCellLocked(raw)
	if !ok {
		// The chunk now holds a document the sketch cannot see: disable
		// pruning for this chunk permanently (until a rebuild).
		ch.sumExact = false
		return
	}
	ch.sum.Add(cell)
}

// summaryRemoveLocked reflects one deleted document in its chunk's
// sketch. Removing from a counting bloom filter is safe: saturated
// slots are sticky, so the sketch over-approximates but never loses a
// present cell.
func (c *Cluster) summaryRemoveLocked(ch *Chunk, raw []byte) {
	if ch.sum == nil {
		return
	}
	if cell, ok := c.summaryCellLocked(raw); ok {
		ch.sum.Remove(cell)
	}
}

// rebuildChunkSummaryLocked rescans the chunk's documents on its owning
// shard and rebuilds the sketch from scratch — used after splits (both
// halves inherit nothing) and after recovery (snapshot restores bypass
// the insert path). It reads one field of each stored document and
// decodes none.
func (c *Cluster) rebuildChunkSummaryLocked(ch *Chunk) {
	if !c.summariesOnLocked() {
		ch.sum = nil
		return
	}
	ch.sum = sketch.New(summaryExpectedCells)
	ch.sumExact = true
	// Summaries are range-sharding only, so the chunk is one interval
	// of the shard-key index.
	coll := c.shards[ch.Shard].Coll
	store := coll.Store()
	coll.Index(ShardKeyIndexName).ScanInterval(chunkInterval(ch), func(_ []byte, id storage.RecordID) bool {
		raw, ok := store.FetchRaw(id)
		if !ok {
			return true
		}
		if cell, ok := c.summaryCellLocked(raw); ok {
			ch.sum.Add(cell)
		} else {
			ch.sumExact = false
		}
		return true
	})
}

// rebuildSummariesLocked rebuilds every chunk's sketch (recovery,
// enable).
func (c *Cluster) rebuildSummariesLocked() {
	if !c.summariesOnLocked() {
		for _, ch := range c.chunks {
			ch.sum = nil
		}
		return
	}
	for _, ch := range c.chunks {
		c.rebuildChunkSummaryLocked(ch)
	}
}

// SetSummaryShift enables (shift > 0) or disables (0) the per-chunk
// summaries at the given coarse-cell shift and rebuilds them from the
// current data. Callers pick the shift so that cells are meaningful
// for the shard key — for a Hilbert d-value of curve order n,
// shift = 2*(n-k) summarises at order-k cells.
func (c *Cluster) SetSummaryShift(shift int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if shift < 0 {
		shift = 0
	}
	c.opts.SummaryShift = shift
	c.rebuildSummariesLocked()
}

// pruneCellRangesLocked derives the query's coarse-cell ranges from its
// bounds on the leading shard-key field. ok is false when the bounds do
// not translate (unbounded endpoints — bson.MinKey/MaxKey — or
// non-integer ones): the router then skips pruning for this query.
func (c *Cluster) pruneCellRangesLocked(set []query.ValueInterval) ([]cellRange, bool) {
	out := make([]cellRange, 0, len(set))
	shift := uint(c.opts.SummaryShift)
	for _, iv := range set {
		lo, ok := asNonNegInt64(iv.Lo)
		if !ok {
			return nil, false
		}
		hi, ok := asNonNegInt64(iv.Hi)
		if !ok {
			return nil, false
		}
		if !iv.LoIncl {
			if lo == int64(^uint64(0)>>1) {
				continue
			}
			lo++
		}
		if !iv.HiIncl {
			if hi == 0 {
				continue
			}
			hi--
		}
		if hi < lo {
			continue
		}
		out = append(out, cellRange{Lo: uint64(lo) >> shift, Hi: uint64(hi) >> shift})
	}
	return out, true
}

func asNonNegInt64(v any) (int64, bool) {
	iv, ok := bson.Normalize(v).(int64)
	if !ok || iv < 0 {
		return 0, false
	}
	return iv, true
}

// chunkMayMatchLocked asks a chunk's sketch whether it may hold any
// document in the query's cell ranges. A chunk without an exact sketch
// always may.
func chunkMayMatchLocked(ch *Chunk, cells []cellRange) bool {
	if ch.sum == nil || !ch.sumExact {
		return true
	}
	for _, cr := range cells {
		if ch.sum.MayContainRange(cr.Lo, cr.Hi, summaryMaxProbe) {
			return true
		}
	}
	return false
}
