package wire

import "repro/internal/query"

// AppendAggResult appends the canonical encoding of an aggregate:
// kind, count, the sorted distinct values, the sorted cell histogram.
// Because AggResult is canonical by construction, these bytes are a
// deterministic function of the aggregate's logical content — the
// property the stquery -digest differential and the result-cache key
// both rest on. A nil aggregate encodes as kind 0 with empty parts.
func AppendAggResult(buf []byte, a *query.AggResult) []byte {
	if a == nil {
		a = &query.AggResult{}
	}
	buf = appendU8(buf, uint8(a.Kind))
	buf = appendI64(buf, a.Count)
	buf = appendU32(buf, uint32(len(a.Distinct)))
	for _, v := range a.Distinct {
		buf = appendBytes(buf, v)
	}
	buf = appendU32(buf, uint32(len(a.Cells)))
	for _, c := range a.Cells {
		buf = appendU64(buf, c.Cell)
		buf = appendI64(buf, c.Count)
	}
	return buf
}

// aggResultSize is the length AppendAggResult appends for a.
func aggResultSize(a *query.AggResult) int {
	if a == nil {
		return 1 + 8 + 4 + 4
	}
	return 1 + 8 + 4 + bytesListSize(a.Distinct) + 4 + 16*len(a.Cells)
}

// DecodeAggResult decodes a canonical aggregate encoding.
func DecodeAggResult(b []byte) (*query.AggResult, error) {
	d := &dec{b: b}
	a := decodeAggResult(d)
	return a, d.finish()
}

func decodeAggResult(d *dec) *query.AggResult {
	a := &query.AggResult{
		Kind:  query.AggKind(d.u8("agg kind")),
		Count: d.i64("agg count"),
	}
	nd := d.count(4, "distinct values")
	if nd > 0 && d.err == nil {
		a.Distinct = make([][]byte, 0, nd)
		for i := 0; i < nd && d.err == nil; i++ {
			a.Distinct = append(a.Distinct, d.bytes("distinct value"))
		}
	}
	nc := d.count(16, "histogram cells")
	if nc > 0 && d.err == nil {
		a.Cells = make([]query.CellCount, 0, nc)
		for i := 0; i < nc && d.err == nil; i++ {
			cell := d.u64("cell")
			n := d.i64("cell count")
			a.Cells = append(a.Cells, query.CellCount{Cell: cell, Count: n})
		}
	}
	return a
}
