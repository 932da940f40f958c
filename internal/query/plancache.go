package query

import "repro/internal/collection"

// The plan cache mirrors the server's: after a multi-plan trial, the
// winning access path is remembered for the query's *shape* (its
// structure of fields and operators, independent of the constant
// values), so repeated queries skip the trials. This is what makes
// the paper's warm-state measurements reflect pure execution time.

// ShapeOf renders the structural shape of a query: its key field and
// its rectangle, but not its window or its cover. The rectangle is not
// parameterized (as on the server, where geo queries are excluded from
// auto-parameterization), so distinct query rectangles plan
// independently — the precondition for the per-query optimizer
// choices of Table 7.
func ShapeOf(f Filter) string { return Prepare(f).spec.shape() }

func (s *Spec) shape() string {
	return s.keyField() + "$geoWithin[" + s.Rect.String() + "]"
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

// cachedPlan looks up the remembered winner for the prepared spec's
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
// spec. It yields exactly the plan CandidatePlans would list under
// that name.
func planByName(coll *collection.Collection, p *Prepared, name string) *Plan {
	// Only a choice between indexes is ever cached: an impossible
	// spec, or one no index serves, has one plan (onlyPlan).
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

// onlyPlan sets *plan to the spec's one candidate plan, or reports
// false when CandidatePlans lists several: only then has a trial, and
// so the plan cache, anything to decide.
func onlyPlan(coll *collection.Collection, p *Prepared, plan *Plan) bool {
	var two [2]Plan
	if c := candidates(coll, p, two[:0], 2); len(c) == 1 {
		*plan = c[0]
		return true
	}
	return false
}

// minReplanBudget keeps trivial cached runs (decision works near
// zero) from thrashing the planner.
const minReplanBudget = 200

// rememberPlan stores the winner for the spec's shape along with the
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

// evictPlan drops the cached winner for the spec's shape, but only if
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
