package sharding

// Per-chunk occupied cells: the router's prove-empty pruning layer.
//
// Every chunk of a range-sharded collection keeps the exact set of
// coarse cells its documents' leading shard-key values fall in, with a
// count per cell, sorted by cell. For the paper's Hilbert approaches
// the cell is the coarse curve cell, obtained by right-shifting the
// d-value (Hilbert indices are hierarchical, so the top bits of a
// d-value ARE its coarse cell). Spatio-temporal data fills few cells,
// so the list is sized by the data: a hil chunk holds about one. The
// lists are maintained on every insert and delete, move whole with
// chunk migrations (ownership changes, content does not), and are
// rebuilt from the data on splits and recovery.
//
// The router consults them after range extraction: a chunk whose
// byte-range overlaps the query may still hold no document in the
// query's cells — chunk ranges cover the whole key space, not the
// subset of it that holds documents. A chunk is pruned only when its
// list is exact and holds none of those cells, so a pruned shard could
// not have contributed a document.

import (
	"cmp"
	"slices"

	"repro/internal/bson"
	"repro/internal/sfc"
	"repro/internal/storage"
)

// cellCount is one occupied coarse cell of a chunk and the number of
// the chunk's documents in it.
type cellCount struct {
	cell uint64
	n    int
}

func compareCell(e cellCount, cell uint64) int { return cmp.Compare(e.cell, cell) }

// summariesOnLocked reports whether per-chunk cells are being
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

// summaryAddLocked counts one inserted document in its chunk's cells.
func (c *Cluster) summaryAddLocked(ch *Chunk, raw []byte) {
	if !c.summariesOnLocked() {
		return
	}
	cell, ok := c.summaryCellLocked(raw)
	if !ok {
		// The chunk now holds a document the list cannot see: disable
		// pruning for this chunk until a rebuild.
		ch.sumExact = false
		return
	}
	ch.cells = addCell(ch.cells, cell)
}

func addCell(cells []cellCount, cell uint64) []cellCount {
	i, found := slices.BinarySearchFunc(cells, cell, compareCell)
	if found {
		cells[i].n++
		return cells
	}
	return slices.Insert(cells, i, cellCount{cell: cell, n: 1})
}

// summaryRemoveLocked uncounts one deleted document, dropping its cell
// when no document of the chunk is left in it.
func (c *Cluster) summaryRemoveLocked(ch *Chunk, raw []byte) {
	if len(ch.cells) == 0 {
		return
	}
	cell, ok := c.summaryCellLocked(raw)
	if !ok {
		return
	}
	if i, found := slices.BinarySearchFunc(ch.cells, cell, compareCell); found {
		if ch.cells[i].n--; ch.cells[i].n == 0 {
			ch.cells = slices.Delete(ch.cells, i, i+1)
		}
	}
}

// rebuildChunkSummaryLocked rescans the chunk's documents on its owning
// shard and rebuilds its cells from scratch — used after splits (both
// halves inherit nothing) and after recovery (snapshot restores bypass
// the insert path). It reads one field of each stored document and
// decodes none.
func (c *Cluster) rebuildChunkSummaryLocked(ch *Chunk) {
	ch.cells, ch.sumExact = nil, true
	if !c.summariesOnLocked() {
		return
	}
	// Cells are range-sharding only, so the chunk is one interval of
	// the shard-key index.
	coll := c.shards[ch.Shard].Coll
	store := coll.Store()
	coll.Index(ShardKeyIndexName).ScanInterval(chunkInterval(ch), func(_ []byte, id storage.RecordID) bool {
		raw, ok := store.FetchRaw(id)
		if !ok {
			return true
		}
		if cell, ok := c.summaryCellLocked(raw); ok {
			ch.cells = addCell(ch.cells, cell)
		} else {
			ch.sumExact = false
		}
		return true
	})
}

// rebuildSummariesLocked rebuilds every chunk's cells (recovery).
func (c *Cluster) rebuildSummariesLocked() {
	for _, ch := range c.chunks {
		c.rebuildChunkSummaryLocked(ch)
	}
}

// chunkMayMatch reports whether the chunk may hold a document in the
// coarse cells of the key ranges: whether its list is inexact or holds
// a cell in some [r.Lo >> shift, r.Hi >> shift].
func chunkMayMatch(ch *Chunk, ranges []sfc.Range, shift uint) bool {
	if !ch.sumExact {
		return true
	}
	for _, r := range ranges {
		i, _ := slices.BinarySearchFunc(ch.cells, r.Lo>>shift, compareCell)
		if i < len(ch.cells) && ch.cells[i].cell <= r.Hi>>shift {
			return true
		}
	}
	return false
}
