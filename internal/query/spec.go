package query

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/keyenc"
	"repro/internal/sfc"
	"repro/internal/sthash"
)

// The document fields a query constrains: the paper's schema.
const (
	FieldLoc     = "location"
	FieldDate    = "date"
	FieldHilbert = "hilbertIndex"
	FieldSTHash  = "stHash"
)

// KeyKind selects an approach's key constraint.
type KeyKind uint8

const (
	// NoKey: the baselines constrain location and date alone.
	NoKey KeyKind = iota
	// HilbertKey constrains hilbertIndex to one of Spec.Cells.
	HilbertKey
	// STHashKey constrains stHash to one of Spec.Strings.
	STHashKey
)

// Spec is the store's one query (Section 4.2.2): the documents whose
// location is a point in Rect and whose date lies in [From, To] and,
// on the Hilbert and ST-Hash approaches, whose key field lies in one
// of the cover's closed ranges. The ranges ascend and are disjoint, as
// the covers give them; Hilbert ranges lie below 2^53, where every
// index key holds them exactly. A key constraint without ranges (an
// empty cover) matches nothing.
//
// A *Spec is a Filter. It renders as the paper's $and of the
// $geoWithin, the date range and the cover's $or, and it matches a
// document by reading those fields straight from its bytes. Planning
// and routing read the bounds from its fields.
type Spec struct {
	Rect     geo.Rect
	From, To time.Time
	Key      KeyKind
	Cells    []sfc.Range
	Strings  []sthash.Range
}

// Impossible reports whether no document can match: the window is
// empty, or the key constraint has no range.
func (s *Spec) Impossible() bool {
	return s.From.After(s.To) ||
		s.Key == HilbertKey && len(s.Cells) == 0 ||
		s.Key == STHashKey && len(s.Strings) == 0
}

// keyField is the field the key constraint is on ("" for none).
func (s *Spec) keyField() string {
	switch s.Key {
	case HilbertKey:
		return FieldHilbert
	case STHashKey:
		return FieldSTHash
	}
	return ""
}

// Intervals reports how many closed intervals the spec puts on an
// ordinary (non-geo) field: one, the window, on the date; one per
// range on the key field; none, leaving it unconstrained, on any other.
func (s *Spec) Intervals(field string) int {
	switch {
	case field == FieldDate:
		return 1
	case field == "" || field != s.keyField():
		return 0
	case s.Key == HilbertKey:
		return len(s.Cells)
	}
	return len(s.Strings)
}

// AppendInterval appends the encoded ends of the field's i-th interval
// (see Intervals), each after prefix, as windows of keys, and reports
// whether the interval holds a single value.
func (s *Spec) AppendInterval(keys *keyenc.Buf, prefix []byte, field string, i int) (lo, hi []byte, point bool) {
	switch {
	case field == FieldDate:
		from, to := s.windowKeys()
		return keys.AppendTime(prefix, from), keys.AppendTime(prefix, to), from.Equal(to)
	case s.Key == HilbertKey:
		r := s.Cells[i]
		return keys.AppendNumber(prefix, float64(r.Lo)), keys.AppendNumber(prefix, float64(r.Hi)), r.Lo == r.Hi
	}
	r := s.Strings[i]
	return keys.AppendString(prefix, r.Lo), keys.AppendString(prefix, r.Hi), r.Lo == r.Hi
}

// windowKeys returns the first and last date the window admits as an
// index key holds them: a stored date is a whole millisecond, so a
// window from a fraction of one starts at the next.
func (s *Spec) windowKeys() (from, to time.Time) {
	from, to = s.From.Truncate(time.Millisecond), s.To.Truncate(time.Millisecond)
	if from.Before(s.From) {
		from = from.Add(time.Millisecond)
	}
	return from, to
}

// Matches implements Filter.
func (s *Spec) Matches(doc bson.Doc) bool { return s.match(doc, true, true) }

// match checks the rectangle, and the window and the key constraint
// when asked to.
func (s *Spec) match(doc bson.Doc, window, key bool) bool {
	if !s.inRect(doc) || window && !s.inWindow(doc) {
		return false
	}
	if !key {
		return true
	}
	switch s.Key {
	case HilbertKey:
		x, ok := numberAt(doc, FieldHilbert)
		// The first range not wholly below x holds it, if any does; a
		// NaN is in none.
		i := sort.Search(len(s.Cells), func(i int) bool { return float64(s.Cells[i].Hi) >= x })
		return ok && i < len(s.Cells) && float64(s.Cells[i].Lo) <= x
	case STHashKey:
		b, ok := stringAt(doc, FieldSTHash)
		i := sort.Search(len(s.Strings), func(i int) bool { return s.Strings[i].Hi >= string(b) })
		return ok && i < len(s.Strings) && s.Strings[i].Lo <= string(b)
	}
	return true
}

// inRect reports whether the document's location is a GeoJSON point
// in the rectangle.
func (s *Spec) inRect(doc bson.Doc) bool {
	var p geo.Point
	if raw, ok := rawOf(doc); ok {
		v, ok := raw.LookupRaw(FieldLoc)
		if !ok {
			return false
		}
		if p.Lon, p.Lat, ok = v.GeoPoint(); !ok {
			return false
		}
	} else {
		v, ok := doc.Lookup(FieldLoc)
		if !ok {
			return false
		}
		if p, ok = geo.PointFromGeoJSON(v); !ok {
			return false
		}
	}
	return s.Rect.Contains(p)
}

// inWindow reports whether the document's date is a date in [From,
// To]; a value of any other kind is outside it.
func (s *Spec) inWindow(doc bson.Doc) bool {
	var t time.Time
	if raw, ok := rawOf(doc); ok {
		v, ok := raw.LookupRaw(FieldDate)
		if !ok {
			return false
		}
		ms, ok := v.DateTimeMS()
		if !ok {
			return false
		}
		t = time.UnixMilli(ms)
	} else {
		v, _ := doc.Lookup(FieldDate)
		var ok bool
		if t, ok = v.(time.Time); !ok {
			return false
		}
	}
	return !t.Before(s.From) && !t.After(s.To)
}

// numberAt reads a field of any numeric kind as a float64.
func numberAt(doc bson.Doc, path string) (float64, bool) {
	if raw, ok := rawOf(doc); ok {
		v, ok := raw.LookupRaw(path)
		if !ok {
			return 0, false
		}
		return v.Numeric()
	}
	v, ok := doc.Lookup(path)
	if !ok {
		return 0, false
	}
	return bson.NumericValue(v)
}

// stringAt reads a string field's bytes.
func stringAt(doc bson.Doc, path string) ([]byte, bool) {
	if raw, ok := rawOf(doc); ok {
		v, ok := raw.LookupRaw(path)
		if !ok {
			return nil, false
		}
		return v.StringBytes()
	}
	v, _ := doc.Lookup(path)
	str, ok := v.(string)
	return []byte(str), ok
}

// rawOf reports the encoded bytes behind a document handed to a
// filter: a bson.Raw, or the *bson.Raw the executor passes so that
// putting each scanned document into the interface allocates nothing.
func rawOf(doc bson.Doc) (bson.Raw, bool) {
	switch d := doc.(type) {
	case *bson.Raw:
		return *d, true
	case bson.Raw:
		return d, true
	}
	return nil, false
}

// String implements Filter: the paper's query language.
func (s *Spec) String() string { return s.render(true, true) }

// render prints the spec's conjunction: the $geoWithin, then the date
// range and the key constraint when asked to.
func (s *Spec) render(window, key bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "{$and: [{%s: {$geoWithin: {$geometry: %s}}}", FieldLoc, geo.GeoJSONPolygonFromRect(s.Rect))
	if window {
		fmt.Fprintf(&b, ", {%s: {$gte: %s}}, {%s: {$lte: %s}}",
			FieldDate, bson.FormatValue(s.From), FieldDate, bson.FormatValue(s.To))
	}
	if key {
		s.renderKey(&b)
	}
	b.WriteString("]}")
	return b.String()
}

// renderKey prints the key constraint's conjuncts: the $or of the
// cover's ranges, with a Hilbert cover's single cells gathered into one
// $in (Section 4.2.2); an empty cover as an impossible pair.
func (s *Spec) renderKey(b *strings.Builder) {
	field := s.keyField()
	var n int
	switch s.Key {
	case HilbertKey:
		n = len(s.Cells)
	case STHashKey:
		n = len(s.Strings)
	default:
		return
	}
	if n == 0 {
		lo, hi := "0", "0"
		if s.Key == STHashKey {
			lo, hi = `"1"`, `"0"`
		}
		fmt.Fprintf(b, ", {%s: {$gt: %s}}, {%s: {$lt: %s}}", field, lo, field, hi)
		return
	}
	b.WriteString(", {$or: [")
	sep := ""
	arm := func(lo, hi string) {
		fmt.Fprintf(b, "%s{$and: [{%s: {$gte: %s}}, {%s: {$lte: %s}}]}", sep, field, lo, field, hi)
		sep = ", "
	}
	var singles []string
	if s.Key == HilbertKey {
		for _, r := range s.Cells {
			if r.Lo == r.Hi {
				singles = append(singles, fmt.Sprint(r.Lo))
			} else {
				arm(fmt.Sprint(r.Lo), fmt.Sprint(r.Hi))
			}
		}
	} else {
		for _, r := range s.Strings {
			arm(bson.FormatValue(r.Lo), bson.FormatValue(r.Hi))
		}
	}
	if singles != nil {
		fmt.Fprintf(b, "%s{%s: {$in: [%s]}}", sep, field, strings.Join(singles, ", "))
	}
	b.WriteString("]}")
}

// residual is what a plan re-checks per fetched document: the
// rectangle always, since no index key holds it exactly, and the
// window and the key constraint unless the plan's index bounds hold
// them exactly (covered predicates).
type residual struct {
	s           *Spec
	window, key bool
}

// Matches implements Filter.
func (r residual) Matches(doc bson.Doc) bool { return r.s.match(doc, r.window, r.key) }

// String implements Filter.
func (r residual) String() string { return r.s.render(r.window, r.key) }

// geoOnly reports whether the residual is the rectangle alone.
func (r residual) geoOnly() bool { return !r.window && !r.key }
