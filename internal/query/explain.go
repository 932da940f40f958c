package query

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/collection"
)

// Explanation describes how a query would (or did) execute on one
// collection: the candidate plans, the trial outcomes, the winner's
// scan shape and the execution counters — the analogue of the
// server's explain("executionStats").
type Explanation struct {
	// Filter is the query as given.
	Filter string
	// Shape is the plan-cache key.
	Shape string
	// Winning describes the chosen access path.
	Winning PlanExplanation
	// Rejected describes the losing candidates.
	Rejected []PlanExplanation
	// Trials reports the multi-planner outcomes (empty on a plan
	// cache hit or a single candidate).
	Trials []TrialResult
	// CacheHit reports whether the winner came from the plan cache.
	CacheHit bool
	// CacheHits and CacheMisses are the collection's cumulative
	// plan-cache counters (including this execution), surfacing how
	// often the warm trial-free path is taken.
	CacheHits   int64
	CacheMisses int64
	// Execution holds the counters of the full run.
	Execution ExecStats

	// Router-level context, filled in by the sharding layer (this
	// package only sees one collection): whether the shard summary
	// layer pruned this shard for the query, and the cluster's result
	// cache counters. They complete the "why was this query cheap"
	// story next to the plan-cache counters above.
	Pruned           bool
	ResultCacheState string // "", "hit", "miss", "off"
	ResultCacheHits  int64
	ResultCacheMiss  int64
}

// PlanExplanation describes one access path.
type PlanExplanation struct {
	// IndexName is the plan's index spec or COLLSCAN.
	IndexName string
	// Segments is the number of scan ranges.
	Segments int
	// SkipScan reports whether trailing-field sub-bounds apply.
	SkipScan bool
	// Residual is the filter re-checked per fetched document.
	Residual string
}

func explainPlan(p *Plan) PlanExplanation {
	out := PlanExplanation{
		IndexName: p.Name(),
		Segments:  len(p.Segments),
	}
	for _, seg := range p.Segments {
		if seg.SubLo != nil {
			out.SkipScan = true
			break
		}
	}
	if p.Filter != nil {
		out.Residual = p.Filter.String()
	}
	return out
}

// Explain plans and executes the filter, returning the full
// explanation. Unlike Execute it always reports the candidate set,
// whether or not the plan cache would have short-circuited planning.
func Explain(coll *collection.Collection, f Filter, cfg *Config) *Explanation {
	p := Prepare(f)
	ex := &Explanation{
		Filter: f.String(),
		Shape:  ShapeOf(p),
	}
	defer func() {
		ex.CacheHits = coll.PlanCacheHits.Load()
		ex.CacheMisses = coll.PlanCacheMisses.Load()
	}()
	choice := !onlyPlan(coll, p, new(Plan))
	if choice {
		if plan, budget, entry, ok := cachedPlan(coll, p); ok {
			start := time.Now()
			stats, completed := runPlan(coll, plan, budget)
			if completed {
				ex.CacheHit = true
				ex.Winning = explainPlan(plan)
				stats.IndexUsed = plan.Name()
				stats.Duration = time.Since(start)
				ex.Execution = stats
				return ex
			}
			evictPlan(coll, p, entry)
		}
	}
	start := time.Now()
	plan, trials := ChoosePlan(coll, p, cfg)
	ex.Trials = trials
	for _, cand := range CandidatePlans(coll, p) {
		if cand.Name() == plan.Name() {
			continue
		}
		ex.Rejected = append(ex.Rejected, explainPlan(cand))
	}
	ex.Winning = explainPlan(plan)
	stats, _ := runPlan(coll, plan, 0)
	if choice {
		rememberPlan(coll, p, plan, stats.KeysExamined+stats.DocsExamined)
	}
	stats.Duration = time.Since(start)
	stats.IndexUsed = plan.Name()
	ex.Execution = stats
	return ex
}

// String renders the explanation in an explain()-like indented form.
func (ex *Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "filter: %s\n", ex.Filter)
	fmt.Fprintf(&b, "winningPlan: %s\n", planLine(ex.Winning))
	if ex.CacheHit {
		fmt.Fprintf(&b, "  (from plan cache)\n")
	}
	if ex.CacheHits+ex.CacheMisses > 0 {
		fmt.Fprintf(&b, "planCache: hits=%d misses=%d\n", ex.CacheHits, ex.CacheMisses)
	}
	if ex.Pruned {
		fmt.Fprintf(&b, "shardSummary: PRUNED (summary proves no matching cells on this shard)\n")
	}
	if ex.ResultCacheState != "" {
		fmt.Fprintf(&b, "resultCache: %s hits=%d misses=%d\n",
			ex.ResultCacheState, ex.ResultCacheHits, ex.ResultCacheMiss)
	}
	for _, r := range ex.Rejected {
		fmt.Fprintf(&b, "rejectedPlan: %s\n", planLine(r))
	}
	for _, tr := range ex.Trials {
		fmt.Fprintf(&b, "trial: %s\n", tr)
	}
	fmt.Fprintf(&b, "executionStats: keysExamined=%d docsExamined=%d nReturned=%d time=%v\n",
		ex.Execution.KeysExamined, ex.Execution.DocsExamined,
		ex.Execution.NReturned, ex.Execution.Duration)
	return b.String()
}

func planLine(p PlanExplanation) string {
	var parts []string
	parts = append(parts, p.IndexName)
	if p.IndexName != CollScanName {
		parts = append(parts, fmt.Sprintf("%d segment(s)", p.Segments))
		if p.SkipScan {
			parts = append(parts, "skip-scan")
		}
	}
	if p.Residual != "" {
		parts = append(parts, "residual: "+p.Residual)
	}
	return strings.Join(parts, ", ")
}
