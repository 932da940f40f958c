package query

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/sfc"
)

// ValueInterval is an interval over document values in canonical
// order. Unbounded ends are expressed with bson.MinKey / bson.MaxKey
// (inclusive), which sort outside every ordinary value.
type ValueInterval struct {
	Lo, Hi         any
	LoIncl, HiIncl bool
}

// PointInterval returns the degenerate interval [v, v].
func PointInterval(v any) ValueInterval {
	v = bson.Normalize(v)
	return ValueInterval{Lo: v, Hi: v, LoIncl: true, HiIncl: true}
}

// FullInterval spans every value.
func FullInterval() ValueInterval {
	return ValueInterval{Lo: bson.MinKey, Hi: bson.MaxKey, LoIncl: true, HiIncl: true}
}

// IsPoint reports whether the interval holds exactly one value.
func (iv ValueInterval) IsPoint() bool {
	return iv.LoIncl && iv.HiIncl && bson.Compare(iv.Lo, iv.Hi) == 0
}

// Empty reports whether no value satisfies the interval.
func (iv ValueInterval) Empty() bool {
	c := bson.Compare(iv.Lo, iv.Hi)
	if c > 0 {
		return true
	}
	return c == 0 && !(iv.LoIncl && iv.HiIncl)
}

func (iv ValueInterval) String() string {
	lo, hi := "(", ")"
	if iv.LoIncl {
		lo = "["
	}
	if iv.HiIncl {
		hi = "]"
	}
	return fmt.Sprintf("%s%s, %s%s", lo, bson.FormatValue(iv.Lo), bson.FormatValue(iv.Hi), hi)
}

// Class extremes used to type-bracket open-ended comparisons on the
// classes the store's range predicates actually target. A bracketed
// interval represents its predicate exactly, which lets the planner
// drop the predicate from the residual filter (a covered predicate);
// other classes fall back to the key-space sentinels and keep their
// residual. They are boxed once here: every prepared comparison reads
// them.
var (
	minNumber, maxNumber     any = math.Inf(-1), math.Inf(1)
	minDateTime, maxDateTime any = time.UnixMilli(-(1 << 61)).UTC(), time.UnixMilli(1 << 61).UTC()
	minObjectID, maxObjectID any = bson.ObjectID{}, bson.ObjectID{
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
	}
)

// classExtremes returns the smallest and largest values of v's
// comparison class, and whether the class is bracketable.
func classExtremes(v any) (lo, hi any, ok bool) {
	switch bson.KindOf(v) {
	case bson.KindInt32, bson.KindInt64, bson.KindFloat64:
		return minNumber, maxNumber, true
	case bson.KindDateTime:
		return minDateTime, maxDateTime, true
	case bson.KindObjectID:
		return minObjectID, maxObjectID, true
	}
	return nil, nil, false
}

// realSameClassEnds reports whether both interval endpoints are
// ordinary values of the same comparison class (no key-space
// sentinels).
func realSameClassEnds(iv ValueInterval) bool {
	lk, hk := bson.KindOf(iv.Lo), bson.KindOf(iv.Hi)
	if lk == bson.KindMinKey || lk == bson.KindMaxKey ||
		hk == bson.KindMinKey || hk == bson.KindMaxKey {
		return false
	}
	return bson.CanonicalClass(iv.Lo) == bson.CanonicalClass(iv.Hi)
}

// intervalFromCmp translates a comparison into an interval and
// reports whether the interval represents the predicate exactly
// (bracketed within the value's class). Inexact intervals over-scan
// into neighbouring classes and rely on the residual filter.
func intervalFromCmp(c Cmp) (ValueInterval, bool) {
	v := bson.Normalize(c.Value)
	if c.Op == OpEQ {
		return PointInterval(v), true
	}
	clo, chi, bracketed := classExtremes(v)
	if !bracketed {
		clo, chi = bson.MinKey, bson.MaxKey
	}
	switch c.Op {
	case OpGT:
		return ValueInterval{Lo: v, Hi: chi, HiIncl: true}, bracketed
	case OpGTE:
		return ValueInterval{Lo: v, LoIncl: true, Hi: chi, HiIncl: true}, bracketed
	case OpLT:
		return ValueInterval{Lo: clo, LoIncl: true, Hi: v}, bracketed
	case OpLTE:
		return ValueInterval{Lo: clo, LoIncl: true, Hi: v, HiIncl: true}, bracketed
	}
	return FullInterval(), false
}

// compareLo orders intervals by their lower end, inclusive first.
func compareLo(a, b ValueInterval) int {
	if c := bson.Compare(a.Lo, b.Lo); c != 0 {
		return c
	}
	switch {
	case a.LoIncl == b.LoIncl:
		return 0
	case a.LoIncl:
		return -1
	default:
		return 1
	}
}

// normalizeIntervals sorts the intervals (in place) and merges
// overlapping or touching ones, dropping empty intervals.
func normalizeIntervals(ivs []ValueInterval) []ValueInterval {
	live := ivs[:0]
	for _, iv := range ivs {
		if !iv.Empty() {
			live = append(live, iv)
		}
	}
	if len(live) <= 1 {
		return live
	}
	slices.SortFunc(live, compareLo)
	out := live[:1]
	for _, iv := range live[1:] {
		last := &out[len(out)-1]
		c := bson.Compare(last.Hi, iv.Lo)
		if c > 0 || (c == 0 && (last.HiIncl || iv.LoIncl)) {
			// Overlapping or touching: extend.
			hc := bson.Compare(iv.Hi, last.Hi)
			if hc > 0 || (hc == 0 && iv.HiIncl) {
				last.Hi, last.HiIncl = iv.Hi, iv.HiIncl
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// intersectInterval returns the overlap of two intervals (possibly
// empty).
func intersectInterval(a, b ValueInterval) ValueInterval {
	out := a
	if c := bson.Compare(b.Lo, a.Lo); c > 0 {
		out.Lo, out.LoIncl = b.Lo, b.LoIncl
	} else if c == 0 {
		out.LoIncl = a.LoIncl && b.LoIncl
	}
	if c := bson.Compare(b.Hi, a.Hi); c < 0 {
		out.Hi, out.HiIncl = b.Hi, b.HiIncl
	} else if c == 0 {
		out.HiIncl = a.HiIncl && b.HiIncl
	}
	return out
}

// intersectSets intersects two normalized interval sets.
func intersectSets(a, b []ValueInterval) []ValueInterval {
	var out []ValueInterval
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		iv := intersectInterval(a[i], b[j])
		if !iv.Empty() {
			out = append(out, iv)
		}
		// Advance the interval that ends first.
		if c := bson.Compare(a[i].Hi, b[j].Hi); c < 0 || (c == 0 && !a[i].HiIncl) {
			i++
		} else {
			j++
		}
	}
	return out
}

// intersectWith is intersectSets(set, normalizeIntervals([iv])),
// written over set's own storage.
func intersectWith(set []ValueInterval, iv ValueInterval) []ValueInterval {
	if iv.Empty() {
		return set[:0]
	}
	out := set[:0]
	for _, s := range set {
		x := intersectInterval(s, iv)
		c := bson.Compare(s.Hi, iv.Hi)
		if !x.Empty() {
			out = append(out, x)
		}
		if c >= 0 && (c != 0 || s.HiIncl) {
			break
		}
	}
	return out
}

// bounds holds the per-field constraints extracted from a filter for
// index-bounds planning: a disjunctive interval set per field and a
// rectangle per geo field. A filter constrains a handful of fields, so
// both are short slices searched by name.
type bounds struct {
	fields     []fieldBounds
	geoRects   []geoBounds
	impossible bool // a constraint is unsatisfiable (e.g. disjoint rects)
}

// fieldBounds is one field's normalized interval set. exact records
// whether the set represents every contributing predicate precisely,
// which is the precondition for treating those predicates as covered by
// the index bounds and dropping them from the residual filter.
//
// While a KeyRanges is the field's only constraint, its ranges stand
// for the set unboxed, and set is nil.
type fieldBounds struct {
	field  string
	set    []ValueInterval
	exact  bool
	ranges []sfc.Range
}

type geoBounds struct {
	field string
	rect  geo.Rect
}

func (b *bounds) lookup(field string) *fieldBounds {
	for i := range b.fields {
		if b.fields[i].field == field {
			return &b.fields[i]
		}
	}
	return nil
}

// intervals is the field's set, boxed.
func (fb *fieldBounds) intervals() []ValueInterval {
	if fb.ranges != nil {
		return KeyRanges{Ranges: fb.ranges}.appendIntervals(nil)
	}
	return fb.set
}

// boxed is lookup with the field's set boxed, to be narrowed.
func (b *bounds) boxed(field string) *fieldBounds {
	fb := b.lookup(field)
	if fb != nil {
		fb.set, fb.ranges = fb.intervals(), nil
	}
	return fb
}

// set returns the field's interval set, and whether it is constrained.
func (b *bounds) set(field string) ([]ValueInterval, bool) {
	if fb := b.lookup(field); fb != nil {
		return fb.intervals(), true
	}
	return nil, false
}

// keyRanges returns the field's set unboxed, when a KeyRanges alone
// constrains it.
func (b *bounds) keyRanges(field string) []sfc.Range {
	if fb := b.lookup(field); fb != nil {
		return fb.ranges
	}
	return nil
}

// isExact reports whether the field's interval set is exact.
func (b *bounds) isExact(field string) bool {
	fb := b.lookup(field)
	return fb != nil && fb.exact
}

// rect returns the rectangle constraining a geo field.
func (b *bounds) rect(field string) (geo.Rect, bool) {
	for _, g := range b.geoRects {
		if g.field == field {
			return g.rect, true
		}
	}
	return geo.Rect{}, false
}

// extractBounds derives index-usable constraints from a filter. It
// understands conjunctions of comparisons, $in, $geoWithin, and one
// special disjunctive shape: an $or whose arms all constrain the same
// single field (the form the Hilbert approach generates for its cell
// ranges, Section 4.2.2). Anything else contributes no bounds and is
// handled by the residual filter.
func extractBounds(f Filter) bounds {
	b := bounds{fields: make([]fieldBounds, 0, 4)}
	b.addConjunct(f)
	return b
}

func (b *bounds) constrain(field string, set []ValueInterval, strict bool) {
	set = normalizeIntervals(set)
	if fb := b.boxed(field); fb != nil {
		fb.set = intersectSets(fb.set, set)
		fb.exact = fb.exact && strict
		set = fb.set
	} else {
		b.fields = append(b.fields, fieldBounds{field: field, set: set, exact: strict})
	}
	if len(set) == 0 {
		b.impossible = true
	}
}

// constrainOne is constrain with the one-interval set of a comparison.
func (b *bounds) constrainOne(field string, iv ValueInterval, strict bool) {
	fb := b.boxed(field)
	if fb == nil {
		b.constrain(field, []ValueInterval{iv}, strict)
		return
	}
	fb.set = intersectWith(fb.set, iv)
	fb.exact = fb.exact && strict
	if len(fb.set) == 0 {
		b.impossible = true
	}
}

func (b *bounds) addConjunct(f Filter) {
	switch t := f.(type) {
	case And:
		for _, c := range t.Children {
			b.addConjunct(c)
		}
	case Cmp:
		iv, strict := intervalFromCmp(t)
		b.constrainOne(t.Field, iv, strict)
	case In:
		set, _ := appendIntervals(nil, t)
		b.constrain(t.Field, set, true)
	case KeyRanges:
		if len(t.Ranges) > 0 && b.lookup(t.Field) == nil {
			b.fields = append(b.fields, fieldBounds{field: t.Field, exact: true, ranges: t.Ranges})
		} else {
			b.constrain(t.Field, t.appendIntervals(nil), true)
		}
	case GeoWithin:
		b.constrainGeo(t.Field, t.Rect)
	case Or:
		if field, ok := singleField(t); ok {
			set, strict := appendIntervals(nil, t)
			b.constrain(field, set, strict)
		}
	}
}

func (b *bounds) constrainGeo(field string, rect geo.Rect) {
	for i := range b.geoRects {
		g := &b.geoRects[i]
		if g.field != field {
			continue
		}
		inter, any := g.rect.Intersection(rect)
		if !any {
			b.impossible = true
			return
		}
		g.rect = inter
		return
	}
	b.geoRects = append(b.geoRects, geoBounds{field: field, rect: rect})
}

// singleField reports the one field a filter constrains: a comparison
// or $in, or a non-empty $and / $or of such filters over one field.
// Only such filters have a field interval set (appendIntervals).
func singleField(f Filter) (string, bool) {
	switch t := f.(type) {
	case Cmp:
		return t.Field, true
	case In:
		return t.Field, true
	case KeyRanges:
		return t.Field, true
	case And:
		return commonField(t.Children)
	case Or:
		return commonField(t.Children)
	}
	return "", false
}

func commonField(children []Filter) (string, bool) {
	if len(children) == 0 {
		return "", false
	}
	field := ""
	for _, c := range children {
		cf, ok := singleField(c)
		if !ok {
			return "", false
		}
		if field == "" {
			field = cf
		} else if field != cf {
			return "", false
		}
	}
	return field, true
}

// appendIntervals appends the disjunctive interval set of a
// single-field filter (see singleField) to dst, and reports whether
// the set represents the filter exactly. A comparison or $in appends
// its raw intervals; an $and or $or appends its set normalized.
func appendIntervals(dst []ValueInterval, f Filter) ([]ValueInterval, bool) {
	switch t := f.(type) {
	case Cmp:
		iv, strict := intervalFromCmp(t)
		return append(dst, iv), strict
	case In:
		dst = slices.Grow(dst, len(t.Values))
		for _, v := range t.Values {
			dst = append(dst, PointInterval(v))
		}
		return dst, true
	case KeyRanges:
		return t.appendIntervals(dst), true
	case And:
		// Intersect the conjuncts' sets. Comparisons against one class
		// whose intersection closed both ends represent the conjunction
		// exactly even for classes without bracketing sentinels (e.g.
		// {s: {$gte: "a", $lte: "m"}}): only values of that class can
		// lie between two real same-class endpoints.
		strict, oneClass := true, true
		set := []ValueInterval{FullInterval()}
		for _, c := range t.Children {
			cset, cstrict := appendIntervals(nil, c)
			strict = strict && cstrict
			cmp, ok := c.(Cmp)
			first, _ := t.Children[0].(Cmp)
			oneClass = oneClass && ok && bson.CanonicalClass(cmp.Value) == bson.CanonicalClass(first.Value)
			set = intersectSets(normalizeIntervals(set), normalizeIntervals(cset))
		}
		if !strict && oneClass && len(set) == 1 && realSameClassEnds(set[0]) {
			strict = true
		}
		return append(dst, set...), strict
	case Or:
		start := len(dst)
		strict := true
		for _, c := range t.Children {
			var cstrict bool
			dst, cstrict = appendIntervals(dst, c)
			strict = strict && cstrict
		}
		return dst[:start+len(normalizeIntervals(dst[start:]))], strict
	}
	return dst, false
}
