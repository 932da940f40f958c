package query

import (
	"repro/internal/bson"
	"repro/internal/sfc"
)

// KeyRanges constrains an integer field to a union of closed ranges,
// the Hilbert approaches' cell constraint (Section 4.2.2). It means and
// renders as the $or Or returns, the paper's, but reaches the bounds,
// the scan segments, the router and the wire as the ranges themselves,
// nothing boxed. The ranges ascend and are disjoint, as a cover gives
// them, and lie below 2^53, where every index key holds them exactly.
type KeyRanges struct {
	Field  string
	Ranges []sfc.Range
}

// Matches implements Filter: the field is a number (of any numeric
// kind) within one of the ranges, compared as the $or's comparisons
// compare it.
func (k KeyRanges) Matches(doc bson.Doc) bool {
	v, ok := fieldOf(doc, k.Field)
	if !ok || v.kind != bson.KindFloat64 {
		return false
	}
	for _, r := range k.Ranges {
		lo := operand{kind: bson.KindFloat64, num: float64(r.Lo)}
		hi := operand{kind: bson.KindFloat64, num: float64(r.Hi)}
		if v.compare(&lo) >= 0 && v.compare(&hi) <= 0 {
			return true
		}
	}
	return false
}

func (k KeyRanges) String() string { return k.Or().String() }

// Or returns the $or the ranges mean, built node by node.
func (k KeyRanges) Or() Filter {
	var arms []Filter
	var singles []any
	for _, r := range k.Ranges {
		if r.Lo == r.Hi {
			singles = append(singles, int64(r.Lo))
		} else {
			arms = append(arms, NewAnd(
				Cmp{Field: k.Field, Op: OpGTE, Value: int64(r.Lo)},
				Cmp{Field: k.Field, Op: OpLTE, Value: int64(r.Hi)},
			))
		}
	}
	if len(singles) > 0 {
		arms = append(arms, In{Field: k.Field, Values: singles})
	}
	if len(arms) == 0 {
		return NewAnd(Cmp{Field: k.Field, Op: OpGT, Value: int64(0)}, Cmp{Field: k.Field, Op: OpLT, Value: int64(0)})
	}
	return Or{Children: arms}
}

// appendIntervals appends the ranges' interval set: what the $or's
// would be, normalized.
func (k KeyRanges) appendIntervals(dst []ValueInterval) []ValueInterval {
	for _, r := range k.Ranges {
		dst = append(dst, ValueInterval{Lo: int64(r.Lo), Hi: int64(r.Hi), LoIncl: true, HiIncl: true})
	}
	return dst
}
