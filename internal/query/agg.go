package query

import (
	"bytes"
	"slices"

	"repro/internal/bson"
	"repro/internal/keyenc"
)

// AggKind selects the pushed-down aggregate computed per shard instead
// of shipping documents.
type AggKind uint8

const (
	// AggNone: no aggregation, documents are returned.
	AggNone AggKind = iota
	// AggCount returns the number of matching documents.
	AggCount
	// AggDistinct returns the set of distinct values of Field across
	// matching documents, in encoded-key form.
	AggDistinct
	// AggCellHist returns a density histogram over the coarse SFC cell
	// of each matching document: the int64 Field value right-shifted by
	// Shift bits.
	AggCellHist
)

func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "count"
	case AggDistinct:
		return "distinct"
	case AggCellHist:
		return "cell-hist"
	}
	return "none"
}

// AggSpec is the aggregate a query pushes down to each shard. The spec
// rides inside Opts, so it reaches the per-shard executor through the
// same path as the limit/order pushdown and is ignored by plan
// selection (aggregates see the same scan a document query would).
type AggSpec struct {
	Kind AggKind
	// Field names the aggregated field: the distinct field for
	// AggDistinct, the int64 SFC-index field for AggCellHist. Unused
	// for AggCount.
	Field string
	// Shift is the right shift applied to the Field value for
	// AggCellHist: cell = uint64(value) >> Shift. A shift of
	// 2*(order-k) on a Hilbert d-value of curve order `order` yields
	// the order-k cell, because Hilbert indices are hierarchical.
	Shift uint8
}

// Active reports whether the spec requests an aggregate.
func (a AggSpec) Active() bool { return a.Kind != AggNone }

// CellCount is one bucket of a cell-density histogram.
type CellCount struct {
	Cell  uint64
	Count int64
}

// AggResult is a (partial or merged) aggregate. Every representation
// is canonical — distinct values sorted by encoded bytes, cells sorted
// by id — so two executions of the same data produce byte-identical
// results regardless of shard completion order, and the router's merge
// is a deterministic fold.
type AggResult struct {
	Kind AggKind
	// Count is the number of matching documents, for every kind (the
	// histogram and distinct kinds report it too, so callers can see
	// how many documents the aggregate covered).
	Count int64
	// Distinct holds the unique encoded values (keyenc encoding, the
	// same bytes an index over the field would order by), sorted.
	Distinct [][]byte
	// Cells is the density histogram, sorted by cell id.
	Cells []CellCount
}

// Merge folds another partial aggregate into this one: counts sum,
// distinct sets union (sorted merge), histograms add. Both inputs must
// be canonical; the result is canonical.
func (a *AggResult) Merge(o *AggResult) {
	if o == nil {
		return
	}
	a.Count += o.Count
	if len(o.Distinct) > 0 {
		a.Distinct = mergeDistinct(a.Distinct, o.Distinct)
	}
	if len(o.Cells) > 0 {
		a.Cells = mergeCells(a.Cells, o.Cells)
	}
}

// mergeDistinct unions two sorted unique slices into a new sorted
// unique slice.
func mergeDistinct(a, b [][]byte) [][]byte {
	out := make([][]byte, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := bytes.Compare(a[i], b[j]); {
		case c < 0:
			out = append(out, a[i])
			i++
		case c > 0:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// mergeCells adds two sorted histograms into a new sorted histogram.
func mergeCells(a, b []CellCount) []CellCount {
	out := make([]CellCount, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Cell < b[j].Cell:
			out = append(out, a[i])
			i++
		case a[i].Cell > b[j].Cell:
			out = append(out, b[j])
			j++
		default:
			out = append(out, CellCount{a[i].Cell, a[i].Count + b[j].Count})
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// aggAcc is the scratch-resident accumulator one shard execution fills
// while scanning. Maps are retained across pool cycles (cleared, not
// reallocated) so a warm aggregate scan allocates only for new keys.
type aggAcc struct {
	count    int64
	distinct map[string]struct{}
	cells    map[uint64]int64
	valBuf   []byte
}

func (a *aggAcc) reset() {
	a.count = 0
	clear(a.distinct)
	clear(a.cells)
}

// accumulate folds one matching document into the accumulator.
func (a *aggAcc) accumulate(doc bson.Raw, spec AggSpec) {
	a.count++
	switch spec.Kind {
	case AggDistinct:
		v, ok := doc.LookupRaw(spec.Field)
		if !ok {
			// Missing fields contribute no distinct value (the usual
			// distinct semantics); the document still counts.
			return
		}
		if a.valBuf, ok = keyenc.AppendRaw(a.valBuf[:0], v); !ok {
			return
		}
		if a.distinct == nil {
			a.distinct = make(map[string]struct{})
		}
		if _, dup := a.distinct[string(a.valBuf)]; !dup {
			a.distinct[string(a.valBuf)] = struct{}{}
		}
	case AggCellHist:
		v, ok := doc.LookupRaw(spec.Field)
		if !ok {
			return
		}
		iv, ok := v.Int64()
		if !ok {
			return
		}
		a.addCell(uint64(iv) >> spec.Shift)
	}
}

// addCell counts one document in the histogram bucket of cell.
func (a *aggAcc) addCell(cell uint64) {
	if a.cells == nil {
		a.cells = make(map[uint64]int64)
	}
	a.cells[cell]++
}

// result materializes the accumulator into a canonical owned
// AggResult.
func (a *aggAcc) result(spec AggSpec) *AggResult {
	res := &AggResult{Kind: spec.Kind, Count: a.count}
	if len(a.distinct) > 0 {
		res.Distinct = make([][]byte, 0, len(a.distinct))
		flat := make([]byte, 0, distinctBytes(a.distinct))
		for v := range a.distinct {
			start := len(flat)
			flat = append(flat, v...)
			res.Distinct = append(res.Distinct, flat[start:len(flat):len(flat)])
		}
		slices.SortFunc(res.Distinct, bytes.Compare)
	}
	if len(a.cells) > 0 {
		res.Cells = make([]CellCount, 0, len(a.cells))
		for cell, n := range a.cells {
			res.Cells = append(res.Cells, CellCount{cell, n})
		}
		slices.SortFunc(res.Cells, func(x, y CellCount) int {
			switch {
			case x.Cell < y.Cell:
				return -1
			case x.Cell > y.Cell:
				return 1
			}
			return 0
		})
	}
	return res
}

func distinctBytes(set map[string]struct{}) int {
	n := 0
	for v := range set {
		n += len(v)
	}
	return n
}

// AggregateDocs computes the aggregate router-side from shipped
// documents — the document-shipping baseline the differential tests
// compare the pushed-down path against. It shares the accumulator with
// the executor, so both paths have identical semantics by
// construction.
func AggregateDocs(docs []bson.Raw, spec AggSpec) *AggResult {
	var acc aggAcc
	for _, d := range docs {
		acc.accumulate(d, spec)
	}
	return acc.result(spec)
}

// Equal reports deep equality of two canonical aggregates.
func (a *AggResult) Equal(o *AggResult) bool {
	if a == nil || o == nil {
		return a == o
	}
	if a.Kind != o.Kind || a.Count != o.Count ||
		len(a.Distinct) != len(o.Distinct) || len(a.Cells) != len(o.Cells) {
		return false
	}
	for i := range a.Distinct {
		if !bytes.Equal(a.Distinct[i], o.Distinct[i]) {
			return false
		}
	}
	for i := range a.Cells {
		if a.Cells[i] != o.Cells[i] {
			return false
		}
	}
	return true
}
