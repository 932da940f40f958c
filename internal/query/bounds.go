package query

import (
	"repro/internal/geo"
	"repro/internal/sfc"
)

// FieldBounds is the exported view of the constraints a filter puts
// on individual fields. The shard router uses it to decide which
// chunks a query can touch, exactly like mongos extracting shard-key
// bounds from a query.
type FieldBounds struct {
	b bounds
}

// BoundsOf returns the per-field constraints of the filter: those a
// Prepared already holds, freshly extracted otherwise.
func BoundsOf(f Filter) FieldBounds {
	if p, ok := f.(*Prepared); ok {
		return FieldBounds{b: p.bounds}
	}
	return FieldBounds{b: extractBounds(f)}
}

// Impossible reports whether the filter is provably unsatisfiable.
func (fb FieldBounds) Impossible() bool { return fb.b.impossible }

// Intervals returns the disjunctive interval set constraining the
// field, and whether the field is constrained at all.
func (fb FieldBounds) Intervals(field string) ([]ValueInterval, bool) {
	return fb.b.set(field)
}

// KeyRanges returns the field's interval set as closed integer ranges,
// unboxed, when a KeyRanges is all that constrains the field; nil
// otherwise (Intervals has the set then).
func (fb FieldBounds) KeyRanges(field string) []sfc.Range { return fb.b.keyRanges(field) }

// Exact reports whether the field's interval set represents every
// predicate on the field precisely — an index scan over it needs no
// residual re-check of them.
func (fb FieldBounds) Exact(field string) bool { return fb.b.isExact(field) }

// GeoRect returns the rectangle constraining a geo field, if any.
func (fb FieldBounds) GeoRect(field string) (geo.Rect, bool) {
	return fb.b.rect(field)
}
