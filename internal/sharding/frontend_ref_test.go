package sharding

// The router front end as it was before its bounds, shape, access
// paths and route were rewritten for speed: the parent implementations,
// kept verbatim apart from package qualifiers and a ref prefix, as the
// reference FuzzFrontEnd holds the rewrite to. refRouteLocked runs on
// refExtractBounds, so the whole reference path is the old one, but for
// pruning: which overlapping chunks hold a document in the query's
// cells is now the caller's to say, from a scan of the documents.

import (
	"math"
	"reflect"
	"slices"
	"strconv"
	"time"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/geohash"
	"repro/internal/index"
	"repro/internal/keyenc"
	"repro/internal/query"
)

// refGeoCoverMaxCells is the planner's geo cover cap.
const refGeoCoverMaxCells = 64

// Class extremes used to type-bracket open-ended comparisons on the
// classes the store's range predicates actually target. A bracketed
// interval represents its predicate exactly, which lets the planner
// drop the predicate from the residual filter (a covered predicate);
// other classes fall back to the key-space sentinels and keep their
// residual.
var (
	refMinDateTime = time.UnixMilli(-(1 << 61)).UTC()
	refMaxDateTime = time.UnixMilli(1 << 61).UTC()
	refMinObjectID = bson.ObjectID{}
	refMaxObjectID = bson.ObjectID{
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
	}
)

// refClassExtremes returns the smallest and largest values of v's
// comparison class, and whether the class is bracketable.
func refClassExtremes(v any) (lo, hi any, ok bool) {
	switch bson.KindOf(v) {
	case bson.KindInt32, bson.KindInt64, bson.KindFloat64:
		return math.Inf(-1), math.Inf(1), true
	case bson.KindDateTime:
		return refMinDateTime, refMaxDateTime, true
	case bson.KindObjectID:
		return refMinObjectID, refMaxObjectID, true
	}
	return nil, nil, false
}

// refRealSameClassEnds reports whether both interval endpoints are
// ordinary values of the same comparison class (no key-space
// sentinels).
func refRealSameClassEnds(iv query.ValueInterval) bool {
	lk, hk := bson.KindOf(iv.Lo), bson.KindOf(iv.Hi)
	if lk == bson.KindMinKey || lk == bson.KindMaxKey ||
		hk == bson.KindMinKey || hk == bson.KindMaxKey {
		return false
	}
	return bson.CanonicalClass(iv.Lo) == bson.CanonicalClass(iv.Hi)
}

// refIntervalFromCmp translates a comparison into an interval and
// reports whether the interval represents the predicate exactly
// (bracketed within the value's class). Inexact intervals over-scan
// into neighbouring classes and rely on the residual filter.
func refIntervalFromCmp(c query.Cmp) (query.ValueInterval, bool) {
	v := bson.Normalize(c.Value)
	if c.Op == query.OpEQ {
		return query.PointInterval(v), true
	}
	clo, chi, bracketed := refClassExtremes(v)
	if !bracketed {
		clo, chi = bson.MinKey, bson.MaxKey
	}
	switch c.Op {
	case query.OpGT:
		return query.ValueInterval{Lo: v, Hi: chi, HiIncl: true}, bracketed
	case query.OpGTE:
		return query.ValueInterval{Lo: v, LoIncl: true, Hi: chi, HiIncl: true}, bracketed
	case query.OpLT:
		return query.ValueInterval{Lo: clo, LoIncl: true, Hi: v}, bracketed
	case query.OpLTE:
		return query.ValueInterval{Lo: clo, LoIncl: true, Hi: v, HiIncl: true}, bracketed
	}
	return query.FullInterval(), false
}

// refNormalizeIntervals sorts the intervals and merges overlapping or
// touching ones, dropping empty intervals.
func refNormalizeIntervals(ivs []query.ValueInterval) []query.ValueInterval {
	live := ivs[:0]
	for _, iv := range ivs {
		if !iv.Empty() {
			live = append(live, iv)
		}
	}
	if len(live) <= 1 {
		return live
	}
	slices.SortFunc(live, func(a, b query.ValueInterval) int {
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
	})
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

// refIntersectInterval returns the overlap of two intervals (possibly
// empty).
func refIntersectInterval(a, b query.ValueInterval) query.ValueInterval {
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

// refIntersectSets intersects two normalized interval sets.
func refIntersectSets(a, b []query.ValueInterval) []query.ValueInterval {
	var out []query.ValueInterval
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		iv := refIntersectInterval(a[i], b[j])
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

// bounds holds the per-field constraints extracted from a filter for
// index-bounds planning: a disjunctive interval set per field and a
// rectangle per geo field. exact records whether the interval set
// represents every contributing predicate precisely, which is the
// precondition for treating those predicates as covered by the index
// bounds and dropping them from the residual filter.
type refBounds struct {
	intervals  map[string][]query.ValueInterval
	exact      map[string]bool
	geoRects   map[string]geo.Rect
	impossible bool // a constraint is unsatisfiable (e.g. disjoint rects)
}

// refExtractBounds derives index-usable constraints from a filter. It
// understands conjunctions of comparisons, $in, $geoWithin, and one
// special disjunctive shape: an $or whose arms all constrain the same
// single field (the form the Hilbert approach generates for its cell
// ranges, Section 4.2.2). Anything else contributes no bounds and is
// handled by the residual filter.
func refExtractBounds(f query.Filter) refBounds {
	b := refBounds{
		intervals: make(map[string][]query.ValueInterval),
		exact:     make(map[string]bool),
		geoRects:  make(map[string]geo.Rect),
	}
	b.addConjunct(f)
	return b
}

func (b *refBounds) constrain(field string, set []query.ValueInterval, strict bool) {
	set = refNormalizeIntervals(set)
	if cur, ok := b.intervals[field]; ok {
		set = refIntersectSets(cur, set)
		b.exact[field] = b.exact[field] && strict
	} else {
		b.exact[field] = strict
	}
	b.intervals[field] = set
	if len(set) == 0 {
		b.impossible = true
	}
}

func (b *refBounds) addConjunct(f query.Filter) {
	switch t := f.(type) {
	case query.And:
		for _, c := range t.Children {
			b.addConjunct(c)
		}
	case query.Cmp:
		iv, strict := refIntervalFromCmp(t)
		b.constrain(t.Field, []query.ValueInterval{iv}, strict)
	case query.In:
		set := make([]query.ValueInterval, 0, len(t.Values))
		for _, v := range t.Values {
			set = append(set, query.PointInterval(v))
		}
		b.constrain(t.Field, set, true)
	case query.GeoWithin:
		b.constrainGeo(t.Field, t.Rect)
	case query.Or:
		if field, set, strict, ok := refSingleFieldIntervals(t); ok {
			b.constrain(field, set, strict)
		}
	}
}

func (b *refBounds) constrainGeo(field string, rect geo.Rect) {
	if cur, ok := b.geoRects[field]; ok {
		inter, any := cur.Intersection(rect)
		if !any {
			b.impossible = true
			return
		}
		b.geoRects[field] = inter
		return
	}
	b.geoRects[field] = rect
}

// refSingleFieldIntervals recognises filters that constrain exactly one
// field and returns that field's disjunctive interval set, plus
// whether the set represents the filter exactly.
func refSingleFieldIntervals(f query.Filter) (string, []query.ValueInterval, bool, bool) {
	switch t := f.(type) {
	case query.Cmp:
		iv, strict := refIntervalFromCmp(t)
		return t.Field, []query.ValueInterval{iv}, strict, true
	case query.In:
		set := make([]query.ValueInterval, 0, len(t.Values))
		for _, v := range t.Values {
			set = append(set, query.PointInterval(v))
		}
		return t.Field, set, true, true
	case query.And:
		if len(t.Children) == 0 {
			return "", nil, false, false
		}
		field := ""
		strict := true
		allCmpSameClass := true
		cmpClass := -1
		set := []query.ValueInterval{query.FullInterval()}
		for _, c := range t.Children {
			cf, cset, cstrict, ok := refSingleFieldIntervals(c)
			if !ok {
				return "", nil, false, false
			}
			if field == "" {
				field = cf
			} else if field != cf {
				return "", nil, false, false
			}
			strict = strict && cstrict
			if cmp, isCmp := c.(query.Cmp); isCmp {
				cl := bson.CanonicalClass(bson.Normalize(cmp.Value))
				if cmpClass == -1 {
					cmpClass = cl
				} else if cmpClass != cl {
					allCmpSameClass = false
				}
			} else {
				allCmpSameClass = false
			}
			set = refIntersectSets(refNormalizeIntervals(set), refNormalizeIntervals(cset))
		}
		if !strict && allCmpSameClass && len(set) == 1 && refRealSameClassEnds(set[0]) {
			// A conjunction of comparisons against one class whose
			// intersection closed both ends represents the predicate
			// exactly even for classes without bracketing sentinels
			// (e.g. {s: {$gte: "a", $lte: "m"}}): only values of that
			// class can lie between two real same-class endpoints.
			strict = true
		}
		return field, set, strict, true
	case query.Or:
		if len(t.Children) == 0 {
			return "", nil, false, false
		}
		field := ""
		strict := true
		var set []query.ValueInterval
		for _, c := range t.Children {
			cf, cset, cstrict, ok := refSingleFieldIntervals(c)
			if !ok {
				return "", nil, false, false
			}
			if field == "" {
				field = cf
			} else if field != cf {
				return "", nil, false, false
			}
			strict = strict && cstrict
			set = append(set, cset...)
		}
		return field, refNormalizeIntervals(set), strict, true
	}
	return "", nil, false, false
}

// refShapeOf renders the structural shape of a filter: operators, field
// names and value type classes, but not the values.
func refShapeOf(f query.Filter) string { return string(refAppendShape(nil, f)) }

func refAppendShape(b []byte, f query.Filter) []byte {
	switch t := f.(type) {
	case query.Cmp:
		b = append(append(b, t.Field...), ':')
		b = append(append(b, t.Op.String()...), ':')
		return strconv.AppendInt(b, int64(bson.CanonicalClass(t.Value)), 10)
	case query.In:
		return append(append(b, t.Field...), ":$in"...)
	case query.GeoWithin:
		// Geo predicates are not parameterized: the geometry is part
		// of the cache key (as on the server, where geo queries are
		// excluded from auto-parameterization). Distinct query
		// rectangles therefore plan independently — the precondition
		// for the per-query optimizer choices of Table 7.
		b = append(append(b, t.Field...), ":$geoWithin["...)
		return append(refAppendRect(b, t.Rect), ']')
	case query.And:
		b = append(b, "and("...)
		for i, c := range t.Children {
			if i > 0 {
				b = append(b, ',')
			}
			b = refAppendShape(b, c)
		}
		return append(b, ')')
	case query.Or:
		// Disjunction arm counts vary with constant values (e.g. the
		// Hilbert cell ranges), so the shape keeps only the set of
		// distinct arm shapes, in a deterministic order. Each arm is
		// rendered at the tail of b and kept only if new.
		mark := len(b)
		var arms []string
		for _, c := range t.Children {
			b = refAppendShape(b, c)
			seen := false
			for _, arm := range arms {
				seen = seen || arm == string(b[mark:])
			}
			if !seen {
				arms = append(arms, string(b[mark:]))
			}
			b = b[:mark]
		}
		slices.Sort(arms)
		b = append(b, "or("...)
		for i, arm := range arms {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, arm...)
		}
		return append(b, ')')
	case *query.Prepared:
		return refAppendShape(b, t.Filter())
	case nil:
		return append(b, "<nil>"...)
	default:
		return append(b, reflect.TypeOf(f).String()...)
	}
}

// refAppendRect renders a rectangle the way geo.Rect.String does — six
// decimals per coordinate — which is what the cache key always held.
func refAppendRect(b []byte, r geo.Rect) []byte {
	b = append(b, "[("...)
	b = strconv.AppendFloat(b, r.Min.Lon, 'f', 6, 64)
	b = append(b, ", "...)
	b = strconv.AppendFloat(b, r.Min.Lat, 'f', 6, 64)
	b = append(b, "), ("...)
	b = strconv.AppendFloat(b, r.Max.Lon, 'f', 6, 64)
	b = append(b, ", "...)
	b = strconv.AppendFloat(b, r.Max.Lat, 'f', 6, 64)
	return append(b, ")]"...)
}

// refResidualFilter removes the top-level conjuncts whose field is fully
// enforced by the plan's index bounds (covered predicates), the way
// the server's FETCH stage only re-checks what the IXSCAN could not
// guarantee. Dropping the Hilbert approach's large $or here is what
// keeps refinement linear in the matched documents rather than in the
// cover size.
func refResidualFilter(f query.Filter, covered map[string]bool) query.Filter {
	if len(covered) == 0 {
		return f
	}
	droppable := func(c query.Filter) bool {
		field, _, _, ok := refSingleFieldIntervals(c)
		return ok && covered[field]
	}
	and, isAnd := f.(query.And)
	if !isAnd {
		if droppable(f) {
			return query.And{}
		}
		return f
	}
	kept := make([]query.Filter, 0, len(and.Children))
	for _, c := range and.Children {
		if !droppable(c) {
			kept = append(kept, c)
		}
	}
	if len(kept) == len(and.Children) {
		return f
	}
	return query.And{Children: kept}
}

// refPlanSegments builds the scan segments of one index for the
// extracted bounds. usable is false when the index's leading field is
// unconstrained.
//
// Point constraints on a field compose with the next field's bounds
// by key-prefix extension. A *range* on an Ascending leading field
// composes with the next Ascending field's bounds via skip-scan
// sub-bounds. A 2dsphere component's cell ranges scan flat, without
// trailing-field pruning — the behaviour the paper observes for the
// baseline's built-in spatial index.
func refPlanSegments(ix *index.Index, b refBounds) (segs []query.Segment, covered map[string]bool, usable bool) {
	fields := ix.Def().Fields
	set0 := refFieldIntervalSet(ix, fields[0], b)
	if set0 == nil {
		return nil, nil, false
	}
	// Skip-scan sub-bounds apply when the leading field is Ascending
	// and the second field is a constrained Ascending field.
	var subLo, subHiUpper []byte
	subExact := false
	if len(fields) > 1 && fields[0].Kind == index.Ascending && fields[1].Kind == index.Ascending {
		if nextSet := refFieldIntervalSet(ix, fields[1], b); len(nextSet) > 0 {
			// Bound by the set's envelope, widened to inclusive. The
			// envelope equals the set when there is a single
			// inclusive interval, in which case the bound is exact.
			lo := nextSet[0]
			hi := nextSet[len(nextSet)-1]
			subLo = keyenc.Encode(lo.Lo)
			subHiUpper = keyenc.PrefixUpperBound(keyenc.Encode(hi.Hi))
			subExact = len(nextSet) == 1 && lo.LoIncl && hi.HiIncl
		}
	}
	var out []query.Segment
	anyRangeSegments := false
	var compose func(fieldIdx int, prefix []byte, set []query.ValueInterval)
	compose = func(fieldIdx int, prefix []byte, set []query.ValueInterval) {
		next := fieldIdx + 1
		for _, iv := range set {
			if iv.IsPoint() && next < len(fields) {
				if nextSet := refFieldIntervalSet(ix, fields[next], b); nextSet != nil {
					compose(next, keyenc.AppendValue(refCloneBytes(prefix), iv.Lo), nextSet)
					continue
				}
			}
			kiv, ok := refByteInterval(prefix, iv)
			if !ok {
				continue
			}
			seg := query.Segment{Interval: kiv}
			if fieldIdx == 0 && !iv.IsPoint() {
				anyRangeSegments = true
				if subLo != nil && subHiUpper != nil {
					seg.SubLo, seg.SubHiUpper = subLo, subHiUpper
				}
			}
			out = append(out, seg)
		}
	}
	compose(0, nil, set0)
	// Covered predicates: the leading Ascending field's bounds encode
	// its (strict) interval set exactly; the second field is covered
	// when every range segment enforced an exact sub-bound and every
	// point composition encoded its full set (which compose does by
	// construction).
	covered = make(map[string]bool)
	if fields[0].Kind == index.Ascending && b.exact[fields[0].Name] {
		covered[fields[0].Name] = true
		if len(fields) > 1 && fields[1].Kind == index.Ascending && b.exact[fields[1].Name] {
			if !anyRangeSegments || (subLo != nil && subExact) {
				covered[fields[1].Name] = true
			}
		}
	}
	return out, covered, true
}

// refFieldIntervalSet returns the disjunctive interval set constraining
// one index field, or nil when the field is unconstrained. Geo fields
// translate their rectangle into geohash cell ranges over the indexed
// hash values.
func refFieldIntervalSet(ix *index.Index, f index.Field, b refBounds) []query.ValueInterval {
	if f.Kind == index.Geo2DSphere {
		rect, ok := b.geoRects[f.Name]
		if !ok {
			return nil
		}
		bits := ix.Def().GeoBits
		if bits == 0 {
			bits = geohash.DefaultBits
		}
		cells := geohash.Cover(rect, bits, refGeoCoverMaxCells)
		set := make([]query.ValueInterval, 0, len(cells))
		for _, c := range cells {
			lo, hi := c.Range(bits)
			set = append(set, query.ValueInterval{
				Lo: int64(lo), LoIncl: true,
				Hi: int64(hi), HiIncl: true,
			})
		}
		return refNormalizeIntervals(set)
	}
	set, ok := b.intervals[f.Name]
	if !ok {
		return nil
	}
	return set
}

// refByteInterval translates a value interval under a tuple prefix into
// encoded-key scan bounds. ok is false when the interval is
// unsatisfiable in key space.
func refByteInterval(prefix []byte, iv query.ValueInterval) (index.Interval, bool) {
	loKey := keyenc.AppendValue(refCloneBytes(prefix), iv.Lo)
	hiKey := keyenc.AppendValue(refCloneBytes(prefix), iv.Hi)
	var out index.Interval
	if iv.LoIncl {
		out.Low = index.IntervalFromTuples(loKey, nil).Low
	} else {
		ub := keyenc.PrefixUpperBound(loKey)
		if ub == nil {
			return out, false
		}
		out.Low = index.IntervalFromTuples(ub, nil).Low
	}
	if iv.HiIncl {
		out.High = index.IntervalFromTuples(nil, hiKey).High
	} else {
		out.High = index.UpperBoundExclusive(hiKey)
	}
	return out, true
}

func refCloneBytes(b []byte) []byte {
	out := make([]byte, len(b), len(b)+16)
	copy(out, b)
	return out
}

// refRouteLocked computes the target shard ids for a filter; the caller
// holds at least the cluster read-lock. It mirrors mongos: extract
// the filter's bounds on the shard-key fields, map them to tuple
// ranges, and collect the shards owning chunks that intersect any
// range. A filter that does not constrain the leading shard-key field
// becomes a broadcast (Section 4.1.2: "broadcast operations occur if
// a query's field constraints are not found in the shard key").
//
// On top of the range overlap, a non-nil occupied prunes the chunks it
// reports holding no document in the query's coarse cells — chunk
// byte-ranges tile the whole key space, so overlap alone visits shards
// that own only empty stretches of it. pruned lists the shards
// (ascending) the overlap test targeted but every overlapping chunk of
// which held none.
func (c *Cluster) refRouteLocked(f query.Filter, occupied func(*Chunk) bool) (shards []int, broadcast bool, pruned []int) {
	if !c.sharded {
		return []int{0}, false, nil
	}
	b := refExtractBounds(f)
	if b.impossible {
		return nil, false, nil
	}
	ranges := c.refShardKeyRanges(b)
	target := make(map[int]bool)
	if ranges == nil {
		broadcast = true
		for _, ch := range c.chunks {
			if ch.Docs > 0 {
				target[ch.Shard] = true
			}
		}
	} else {
		consult := occupied != nil
		var candidate map[int]bool
		if consult {
			candidate = make(map[int]bool)
		}
		for _, ch := range c.chunks {
			if ch.Docs == 0 {
				continue
			}
			for _, r := range ranges {
				if !r.overlapsChunk(ch) {
					continue
				}
				if consult {
					candidate[ch.Shard] = true
					if !occupied(ch) {
						break
					}
				}
				target[ch.Shard] = true
				break
			}
		}
		for sid := range candidate {
			if !target[sid] {
				pruned = append(pruned, sid)
			}
		}
		slices.Sort(pruned)
	}
	for sid := range target {
		shards = append(shards, sid)
	}
	slices.Sort(shards)
	return shards, broadcast, pruned
}

// refShardKeyRanges translates the filter bounds into tuple ranges; nil
// means the shard key is unconstrained (broadcast).
func (c *Cluster) refShardKeyRanges(b refBounds) []tupleRange {
	set, ok := b.intervals[c.key.Fields[0]]
	if !ok || len(set) == 0 {
		return nil
	}
	if c.key.Strategy == HashedSharding {
		// Only equality predicates route under hashed sharding; any
		// range forces a broadcast.
		var out []tupleRange
		for _, iv := range set {
			if !iv.IsPoint() {
				return nil
			}
			enc := keyenc.Encode(HashValue(iv.Lo))
			out = append(out, refPrefixRange(enc))
		}
		return out
	}
	var out []tupleRange
	for _, iv := range set {
		// For a point on the leading field, the next field's bounds
		// can narrow the range further (compound shard keys).
		if iv.IsPoint() && len(c.key.Fields) > 1 {
			if nextSet, ok := b.intervals[c.key.Fields[1]]; ok && len(nextSet) > 0 {
				prefix := keyenc.Encode(iv.Lo)
				for _, niv := range nextSet {
					out = append(out, refComposeRange(prefix, niv))
				}
				continue
			}
		}
		out = append(out, refComposeRange(nil, iv))
	}
	return out
}

// refComposeRange builds the [Lo, Hi) byte range of one value interval
// under an encoded tuple prefix.
func refComposeRange(prefix []byte, iv query.ValueInterval) tupleRange {
	loKey := keyenc.AppendValue(append([]byte{}, prefix...), iv.Lo)
	hiKey := keyenc.AppendValue(append([]byte{}, prefix...), iv.Hi)
	var r tupleRange
	if iv.LoIncl {
		r.Lo = loKey
	} else {
		r.Lo = keyenc.PrefixUpperBound(loKey)
	}
	if iv.HiIncl {
		r.Hi = keyenc.PrefixUpperBound(hiKey)
	} else {
		r.Hi = hiKey
	}
	return r
}

// refPrefixRange covers every tuple extending the encoded prefix.
func refPrefixRange(prefix []byte) tupleRange {
	return tupleRange{Lo: prefix, Hi: keyenc.PrefixUpperBound(prefix)}
}
