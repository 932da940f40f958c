package query

import (
	"math"
	"math/bits"
	"reflect"
	"slices"
	"strconv"

	"repro/internal/bson"
	"repro/internal/collection"
	"repro/internal/geo"
)

// The plan cache mirrors the server's: after a multi-plan trial, the
// winning access path is remembered for the query's *shape* (its
// structure of fields and operators, independent of the constant
// values), so repeated queries skip the trials. This is what makes
// the paper's warm-state measurements reflect pure execution time.

// ShapeOf renders the structural shape of a filter: operators, field
// names and value type classes, but not the values.
func ShapeOf(f Filter) string { return string(appendShape(nil, f)) }

func appendShape(b []byte, f Filter) []byte {
	switch t := f.(type) {
	case Cmp:
		b = append(append(b, t.Field...), ':')
		b = append(append(b, t.Op.String()...), ':')
		return strconv.AppendInt(b, int64(bson.CanonicalClass(t.Value)), 10)
	case In:
		return append(append(b, t.Field...), ":$in"...)
	case GeoWithin:
		// Geo predicates are not parameterized: the geometry is part
		// of the cache key (as on the server, where geo queries are
		// excluded from auto-parameterization). Distinct query
		// rectangles therefore plan independently — the precondition
		// for the per-query optimizer choices of Table 7.
		b = append(append(b, t.Field...), ":$geoWithin["...)
		return append(appendRect(b, t.Rect), ']')
	case GeoWithinPolygon:
		b = append(append(b, t.Field...), ":$geoWithin:poly["...)
		return append(appendRect(b, t.Polygon.BoundingRect()), ']')
	case And:
		b = append(b, "and("...)
		for i, c := range t.Children {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendShape(b, c)
		}
		return append(b, ')')
	case Or:
		// Disjunction arm counts vary with constant values (e.g. the
		// Hilbert cell ranges), so the shape keeps only the set of
		// distinct arm shapes, in a deterministic order. Each arm is
		// rendered at the tail of b and kept only if new.
		mark := len(b)
		var arms []string
		for _, c := range t.Children {
			b = appendShape(b, c)
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
	case *Prepared:
		return append(b, t.cacheKey().(string)...)
	case nil:
		return append(b, "<nil>"...)
	default:
		return append(b, reflect.TypeOf(f).String()...)
	}
}

// appendRect renders a rectangle the way geo.Rect.String does — six
// decimals per coordinate — which is what the cache key always held.
func appendRect(b []byte, r geo.Rect) []byte {
	b = append(b, "[("...)
	b = appendCoord(b, r.Min.Lon)
	b = append(b, ", "...)
	b = appendCoord(b, r.Min.Lat)
	b = append(b, "), ("...)
	b = appendCoord(b, r.Max.Lon)
	b = append(b, ", "...)
	b = appendCoord(b, r.Max.Lat)
	return append(b, ")]"...)
}

// appendCoord appends strconv.AppendFloat(b, x, 'f', 6, 64), which
// takes strconv's multiprecision path for every value. For
// 2⁻¹¹ ≤ |x| < 2⁴² — every coordinate but those within 0.0005 of zero
// — it computes the same digits exactly in integers instead: x is
// m·2⁻ˢ with 11 ≤ s ≤ 63, so x·10⁶ rounded half to even is the 73-bit
// product m·10⁶ shifted right by s with its remainder rounding.
func appendCoord(b []byte, x float64) []byte {
	xb := math.Float64bits(x)
	shift := 1075 - int(xb>>52&0x7FF)
	if shift < 11 || shift > 63 {
		return strconv.AppendFloat(b, x, 'f', 6, 64)
	}
	hi, lo := bits.Mul64(xb&(1<<52-1)|1<<52, 1e6)
	q := hi<<(64-shift) | lo>>shift
	rem, half := lo&(1<<shift-1), uint64(1)<<(shift-1)
	if rem > half || rem == half && q&1 == 1 {
		q++
	}
	if xb>>63 == 1 {
		b = append(b, '-')
	}
	b = strconv.AppendUint(b, q/1e6, 10)
	frac := q % 1e6
	b = append(b, '.', 0, 0, 0, 0, 0, 0)
	for i := len(b) - 1; i > len(b)-7; i-- {
		b[i] = byte('0' + frac%10)
		frac /= 10
	}
	return b
}

// cacheEntry is a remembered winner plus the work it took to win,
// which bounds how long a cached plan may run before the executor
// gives up on it and replans (the server's replanning mechanism).
//
// Entries are stored in the collection's sync.Map keyed by shape, so
// lookups and stores are safe under the concurrent executions the
// parallel router issues. The struct is comparable on purpose:
// eviction uses CompareAndDelete with the entry the evicting
// execution saw, so a replanner that lost a race (another execution
// already evicted and re-remembered a fresh winner) leaves the newer
// entry in place instead of evicting it.
type cacheEntry struct {
	name  string
	works int
}

// replanFactor multiplies the decision works into the cached plan's
// execution budget, like the server's internalQueryCacheEvictionRatio.
const replanFactor = 10

// planCacheCap bounds the remembered shapes per collection. A geo
// predicate's rectangle is part of its shape, so a long-running
// server meets an unbounded stream of distinct shapes; past the cap
// the whole cache is dropped, which costs each live shape one
// re-trial on its next execution and nothing else.
const planCacheCap = 4096

// cachedPlan looks up the remembered winner for the prepared filter's
// shape and assembles its plan from the prepared access path: a cache
// load, an index lookup by spec, one Plan. The losing candidates are
// never built. The returned budget is the works allowance before the
// plan must be evicted; the returned entry is what evictPlan needs
// for its compare-and-delete.
func cachedPlan(coll *collection.Collection, p *Prepared) (*Plan, int, cacheEntry, bool) {
	v, ok := coll.PlanCache.Load(p.cacheKey())
	if !ok {
		coll.PlanCacheMisses.Add(1)
		return nil, 0, cacheEntry{}, false
	}
	entry := v.(cacheEntry)
	plan := planByName(coll, p, entry.name)
	if plan == nil {
		coll.PlanCacheMisses.Add(1)
		return nil, 0, cacheEntry{}, false
	}
	coll.PlanCacheHits.Add(1)
	budget := replanFactor * entry.works
	if budget < minReplanBudget {
		budget = minReplanBudget
	}
	return plan, budget, entry, true
}

// planByName builds the single candidate plan with the given name, or
// nil when the name no longer denotes a usable access path for this
// filter. It yields exactly the plan CandidatePlans would list under
// that name.
func planByName(coll *collection.Collection, p *Prepared, name string) *Plan {
	if p.bounds.impossible {
		plan := emptyPlan(coll, p)
		if plan.Name() != name {
			return nil
		}
		return plan
	}
	if name == CollScanName {
		// A collection scan is a candidate only while no index is
		// usable; usability depends on which fields are constrained
		// (the shape), so a cached COLLSCAN stays valid unless an
		// index was created since.
		for _, ix := range coll.Indexes() {
			if p.path(ix).usable {
				return nil
			}
		}
		return &Plan{Filter: p.whole()}
	}
	ix := coll.IndexBySpec(name)
	if ix == nil {
		return nil
	}
	ap := p.path(ix)
	if !ap.usable {
		return nil
	}
	return &Plan{Index: ix, Segments: ap.segments, Filter: ap.residual}
}

// emptyPlan is the plan of a provably unsatisfiable filter: an index
// scan over no segments.
func emptyPlan(coll *collection.Collection, p *Prepared) *Plan {
	return &Plan{Index: coll.Index(collection.IDIndexName), Filter: p.filter}
}

// minReplanBudget keeps trivial cached runs (decision works near
// zero) from thrashing the planner.
const minReplanBudget = 200

// rememberPlan stores the winner for the filter shape along with the
// works its winning execution consumed. Concurrent replans of the
// same shape race last-writer-wins, which is safe: every writer
// stores a winner it just validated against the live data, so any of
// them is a correct cache entry. A new shape that takes the cache
// past planCacheCap empties it.
func rememberPlan(coll *collection.Collection, p *Prepared, plan *Plan, works int) {
	_, replaced := coll.PlanCache.Swap(p.cacheKey(), cacheEntry{name: plan.Name(), works: works})
	if !replaced && coll.PlanCacheEntries.Add(1) > planCacheCap {
		ClearPlanCache(coll)
	}
}

// evictPlan drops the cached winner for the filter shape, but only if
// it is still the entry the caller's execution ran with — a plain
// Delete here could throw away the fresh winner a concurrently
// replanning execution just remembered.
func evictPlan(coll *collection.Collection, p *Prepared, seen cacheEntry) {
	if coll.PlanCache.CompareAndDelete(p.cacheKey(), seen) {
		coll.PlanCacheEntries.Add(-1)
	}
}

// ClearPlanCache drops the collection's cached plans (the cap's
// overflow; tests and benchmarks use it to measure cold planning).
// Every entry is counted out as it goes, so the entry count stays
// exact under concurrent remembers.
func ClearPlanCache(coll *collection.Collection) {
	coll.PlanCache.Range(func(k, _ any) bool {
		if _, present := coll.PlanCache.LoadAndDelete(k); present {
			coll.PlanCacheEntries.Add(-1)
		}
		return true
	})
}
