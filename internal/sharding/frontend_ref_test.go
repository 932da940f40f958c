package sharding

// The router front end's reference: the spec's bounds boxed as closed
// value intervals per field, every key built by keyenc.AppendValue in a
// fresh slice, the residual rendered conjunct by conjunct, and a route
// that tests every chunk against every range. FuzzFrontEnd holds the
// unboxed planner and router to it. Which overlapping chunks hold a
// document in the query's cells is the caller's to say, from a scan of
// the documents.

import (
	"fmt"
	"slices"
	"strings"
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

// refInterval is a closed interval of one field's values.
type refInterval struct{ Lo, Hi any }

func (iv refInterval) isPoint() bool { return bson.Compare(iv.Lo, iv.Hi) == 0 }

// refBounds is what a spec constrains, per field: the window on the
// date, the cover's ranges on the key field, and the rectangle.
type refBounds struct {
	intervals  map[string][]refInterval
	rect       geo.Rect
	impossible bool
}

func refBoundsOf(s *query.Spec) refBounds {
	// Index keys hold whole milliseconds: the window's first key is
	// From rounded up, its last To rounded down.
	from := time.UnixMilli(s.From.UnixMilli())
	if from.Before(s.From) {
		from = from.Add(time.Millisecond)
	}
	b := refBounds{intervals: map[string][]refInterval{"date": {{from, time.UnixMilli(s.To.UnixMilli())}}}, rect: s.Rect}
	b.impossible = s.To.Before(s.From)
	switch s.Key {
	case query.HilbertKey:
		var set []refInterval
		for _, r := range s.Cells {
			set = append(set, refInterval{int64(r.Lo), int64(r.Hi)})
		}
		b.intervals["hilbertIndex"] = set
		b.impossible = b.impossible || len(set) == 0
	case query.STHashKey:
		var set []refInterval
		for _, r := range s.Strings {
			set = append(set, refInterval{r.Lo, r.Hi})
		}
		b.intervals["stHash"] = set
		b.impossible = b.impossible || len(set) == 0
	}
	return b
}

// refRender renders the spec's conjunction less the covered fields'
// conjuncts: the paper's $and of the $geoWithin, the date pair and the
// cover's $or of $gte/$lte pairs, a Hilbert cover's single cells in one
// trailing $in, an empty cover as an impossible pair.
func refRender(s *query.Spec, covered map[string]bool) string {
	conj := []string{fmt.Sprintf("{location: {$geoWithin: {$geometry: %s}}}", geo.GeoJSONPolygonFromRect(s.Rect))}
	if !covered["date"] {
		conj = append(conj,
			fmt.Sprintf("{date: {$gte: %s}}", bson.FormatValue(s.From)),
			fmt.Sprintf("{date: {$lte: %s}}", bson.FormatValue(s.To)))
	}
	field, empty := "", `{%[1]s: {$gt: %[2]s}}, {%[1]s: {$lt: %[3]s}}`
	var arms, singles []string
	pair := func(lo, hi any) string {
		return fmt.Sprintf("{$and: [{%s: {$gte: %s}}, {%s: {$lte: %s}}]}", field, bson.FormatValue(lo), field, bson.FormatValue(hi))
	}
	switch s.Key {
	case query.HilbertKey:
		field, empty = "hilbertIndex", fmt.Sprintf(empty, "hilbertIndex", "0", "0")
		for _, r := range s.Cells {
			if r.Lo == r.Hi {
				singles = append(singles, bson.FormatValue(int64(r.Lo)))
			} else {
				arms = append(arms, pair(int64(r.Lo), int64(r.Hi)))
			}
		}
	case query.STHashKey:
		field, empty = "stHash", fmt.Sprintf(empty, "stHash", `"1"`, `"0"`)
		for _, r := range s.Strings {
			arms = append(arms, pair(r.Lo, r.Hi))
		}
	}
	if singles != nil {
		arms = append(arms, fmt.Sprintf("{%s: {$in: [%s]}}", field, strings.Join(singles, ", ")))
	}
	switch {
	case field == "" || covered[field]:
	case arms == nil:
		conj = append(conj, empty)
	default:
		conj = append(conj, "{$or: ["+strings.Join(arms, ", ")+"]}")
	}
	return "{$and: [" + strings.Join(conj, ", ") + "]}"
}

// refPlanSegments builds the scan segments of one index for the
// bounds. usable is false when the index's leading field is
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
			// Bound by the set's envelope, exact when it is one
			// interval.
			subLo = keyenc.Encode(nextSet[0].Lo)
			subHiUpper = keyenc.PrefixUpperBound(keyenc.Encode(nextSet[len(nextSet)-1].Hi))
			subExact = len(nextSet) == 1
		}
	}
	var out []query.Segment
	anyRangeSegments := false
	var compose func(fieldIdx int, prefix []byte, set []refInterval)
	compose = func(fieldIdx int, prefix []byte, set []refInterval) {
		next := fieldIdx + 1
		for _, iv := range set {
			if iv.isPoint() && next < len(fields) {
				if nextSet := refFieldIntervalSet(ix, fields[next], b); nextSet != nil {
					compose(next, keyenc.AppendValue(refCloneBytes(prefix), iv.Lo), nextSet)
					continue
				}
			}
			seg := query.Segment{Interval: index.Interval{
				Low:  index.IntervalFromTuples(keyenc.AppendValue(refCloneBytes(prefix), iv.Lo), nil).Low,
				High: index.IntervalFromTuples(nil, keyenc.AppendValue(refCloneBytes(prefix), iv.Hi)).High,
			}}
			if fieldIdx == 0 && !iv.isPoint() {
				anyRangeSegments = true
				seg.SubLo, seg.SubHiUpper = subLo, subHiUpper
			}
			out = append(out, seg)
		}
	}
	compose(0, nil, set0)
	// Covered predicates: a spec's intervals on an Ascending field
	// hold its predicate exactly, so the leading Ascending field is
	// covered; the second is when every range segment enforced an
	// exact sub-bound.
	covered = make(map[string]bool)
	if fields[0].Kind == index.Ascending {
		covered[fields[0].Name] = true
		if len(fields) > 1 && fields[1].Kind == index.Ascending && b.intervals[fields[1].Name] != nil {
			if !anyRangeSegments || (subLo != nil && subExact) {
				covered[fields[1].Name] = true
			}
		}
	}
	return out, covered, true
}

// refFieldIntervalSet returns the interval set constraining one index
// field, or nil when the field is unconstrained. The 2dsphere location
// translates its rectangle into geohash cell ranges over the indexed
// hash values.
func refFieldIntervalSet(ix *index.Index, f index.Field, b refBounds) []refInterval {
	if f.Kind == index.Geo2DSphere {
		if f.Name != "location" {
			return nil
		}
		bits := ix.Def().GeoBits
		if bits == 0 {
			bits = geohash.DefaultBits
		}
		set := []refInterval{}
		for _, c := range geohash.Cover(b.rect, bits, refGeoCoverMaxCells) {
			lo, hi := c.Range(bits)
			set = append(set, refInterval{int64(lo), int64(hi)})
		}
		return set
	}
	return b.intervals[f.Name]
}

func refCloneBytes(b []byte) []byte {
	out := make([]byte, len(b), len(b)+16)
	copy(out, b)
	return out
}

// refRouteLocked computes the target shard ids for a spec; the caller
// holds at least the cluster read-lock. It mirrors mongos: map the
// bounds on the shard-key fields to tuple ranges, and collect the
// shards owning chunks that intersect any range. A spec that does not
// constrain the leading shard-key field becomes a broadcast.
//
// On top of the range overlap, a non-nil occupied prunes the chunks it
// reports holding no document in the query's coarse cells. pruned
// lists the shards (ascending) the overlap test targeted but every
// overlapping chunk of which held none.
func (c *Cluster) refRouteLocked(s *query.Spec, occupied func(*Chunk) bool) (shards []int, broadcast bool, pruned []int) {
	if !c.sharded {
		return []int{0}, false, nil
	}
	b := refBoundsOf(s)
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

// refShardKeyRanges translates the bounds into tuple ranges; nil
// means the shard key is unconstrained (broadcast).
func (c *Cluster) refShardKeyRanges(b refBounds) []tupleRange {
	set := b.intervals[c.key.Fields[0]]
	if len(set) == 0 {
		return nil
	}
	var out []tupleRange
	if c.key.Strategy == HashedSharding {
		// Only points route under hashed sharding; any range forces a
		// broadcast.
		for _, iv := range set {
			if !iv.isPoint() {
				return nil
			}
			out = append(out, refPrefixRange(keyenc.Encode(HashValue(iv.Lo))))
		}
		return out
	}
	for _, iv := range set {
		// For a point on the leading field, the next field's bounds
		// can narrow the range further (compound shard keys).
		if iv.isPoint() && len(c.key.Fields) > 1 {
			if nextSet := b.intervals[c.key.Fields[1]]; len(nextSet) > 0 {
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

// refComposeRange builds the [Lo, Hi) byte range of one closed
// interval under an encoded tuple prefix.
func refComposeRange(prefix []byte, iv refInterval) tupleRange {
	return tupleRange{
		Lo: keyenc.AppendValue(append([]byte{}, prefix...), iv.Lo),
		Hi: keyenc.PrefixUpperBound(keyenc.AppendValue(append([]byte{}, prefix...), iv.Hi)),
	}
}

// refPrefixRange covers every tuple extending the encoded prefix.
func refPrefixRange(prefix []byte) tupleRange {
	return tupleRange{Lo: prefix, Hi: keyenc.PrefixUpperBound(prefix)}
}
