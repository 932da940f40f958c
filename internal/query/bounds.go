package query

import "repro/internal/geo"

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
	set, ok := fb.b.intervals[field]
	return set, ok
}

// GeoRect returns the rectangle constraining a geo field, if any.
func (fb FieldBounds) GeoRect(field string) (geo.Rect, bool) {
	r, ok := fb.b.geoRects[field]
	return r, ok
}
