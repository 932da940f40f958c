package core

import (
	"fmt"
	"time"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/sfc"
	"repro/internal/sharding"
	"repro/internal/sthash"
)

// QueryStats are the paper's evaluation metrics for one query
// execution (Section 5.1).
type QueryStats struct {
	// Nodes is the number of cluster nodes the query was routed to.
	Nodes int
	// MaxKeysExamined is the largest per-node index-key count.
	MaxKeysExamined int
	// MaxDocsExamined is the largest per-node fetched-document count.
	MaxDocsExamined int
	// NReturned is the result-set size.
	NReturned int
	// Duration is the scatter-gather execution time, excluding the
	// Hilbert cell computation (the paper reports that separately in
	// Table 8).
	Duration time.Duration
	// CoverDuration is the time spent computing the Hilbert cell
	// ranges for the query (zero for the baselines) — Table 8.
	CoverDuration time.Duration
	// CoverRanges and CoverCells describe the generated hilbertIndex
	// constraint: contiguous ranges and single-cell values.
	CoverRanges int
	CoverCells  int
	// IndexesUsed lists the winning access path on each targeted
	// shard, in shard order — the Table 7 observable.
	IndexesUsed []string
	// Broadcast reports whether routing degenerated to all shards.
	Broadcast bool
	// Retries is the total number of per-shard retry attempts the
	// scatter-gather needed (zero on a healthy cluster).
	Retries int
	// Partial reports that at least one shard failed; with Policy
	// AllowPartial the documents cover only the healthy shards.
	Partial bool
	// FailedShards lists the shards that contributed nothing, in
	// ascending order.
	FailedShards []int
	// PlanCacheHits and PlanCacheMisses are the cluster-wide
	// cumulative plan-cache counters (summed over the shard
	// collections) at the time the query completed — how often the
	// warm trial-free planning path was taken.
	PlanCacheHits   int64
	PlanCacheMisses int64
	// ShardsPruned counts shards the chunk map targeted but the
	// chunks' occupied cells proved empty for this query, so the
	// scatter skipped them.
	ShardsPruned int
	// ShardsSkipped counts targeted shards a limited query never asked:
	// the shards before them in its walk already filled the quota.
	ShardsSkipped int
	// CacheHit reports the whole result came from the router's
	// epoch-invalidated result cache without touching any shard.
	CacheHit bool
}

// QueryResult carries the documents and the stats. For an aggregate
// query Docs is empty and Agg holds the merged aggregate instead.
type QueryResult struct {
	Docs  []bson.Raw
	Agg   *query.AggResult
	Stats QueryStats
	// Err reports a query that was refused before it ran — an aggregate
	// request this store cannot serve (see Aggregate); everything else is
	// zero then. Shard failures are not errors here: they degrade the
	// answer and show in Stats.Partial / Stats.FailedShards.
	Err error
}

// SortOrder selects the result ordering a query pushes down to the
// shards.
type SortOrder int

const (
	// SortNone returns documents in natural (per-shard scan) order.
	SortNone SortOrder = iota
	// SortDateAsc orders results by the date field, ascending.
	SortDateAsc
	// SortDateDesc orders results by the date field, descending.
	SortDateDesc
)

// STQuery is a spatio-temporal range query: a rectangle and a closed
// time interval, optionally limited and ordered. Limit and Sort are
// pushed down through the router into each shard's executor: scans
// stop early (or keep a bounded top-k) per shard, and the router
// merges the per-shard streams instead of concatenating full result
// sets.
type STQuery struct {
	Rect geo.Rect
	From time.Time
	To   time.Time
	// Limit caps the result-set size; 0 means unlimited. The limited
	// result is byte-identical to a prefix of the unlimited one.
	Limit int
	// Sort orders the merged results (and makes a limited query a
	// top-k query).
	Sort SortOrder
	// Count, Distinct and HeatmapBits select a pushed-down aggregate
	// instead of document shipping: shards compute partial aggregates
	// inside their scans and the router merges them. At most one may
	// be set.
	//
	// Count returns only the number of matching documents. Distinct
	// names a field whose distinct value set is returned. HeatmapBits
	// asks for a per-cell density histogram of the matching documents
	// at that curve resolution (bits per dimension, Hilbert
	// approaches only).
	Count       bool
	Distinct    string
	HeatmapBits int
}

// HasAgg reports whether the query requests a pushed-down aggregate.
func (q STQuery) HasAgg() bool {
	return q.Count || q.Distinct != "" || q.HeatmapBits > 0
}

// opts translates the query into the executor's pushed-down options.
// It is the one place that decides documents-vs-aggregate: a query
// with an aggregate field set pushes the aggregate down (validated
// against this store's approach) and can never come back as a plain
// document result.
func (s *Store) opts(q STQuery) (query.Opts, error) {
	o := query.Opts{Limit: q.Limit}
	switch q.Sort {
	case SortDateAsc:
		o.OrderBy = FieldDate
	case SortDateDesc:
		o.OrderBy = FieldDate
		o.Desc = true
	}
	n := 0
	if q.Count {
		n++
		o.Agg = query.AggSpec{Kind: query.AggCount}
	}
	if q.Distinct != "" {
		n++
		o.Agg = query.AggSpec{Kind: query.AggDistinct, Field: q.Distinct}
	}
	if q.HeatmapBits > 0 {
		n++
		if s.grid == nil {
			return o, fmt.Errorf("core: heatmap requires a Hilbert approach (no curve value to cell)")
		}
		order := int(s.grid.Curve().Order())
		if q.HeatmapBits > order {
			return o, fmt.Errorf("core: heatmap bits %d exceed curve order %d", q.HeatmapBits, order)
		}
		// A b-bit heatmap cell is the top 2b bits of the 2·order-bit
		// curve value: drop the low 2(order-b).
		o.Agg = query.AggSpec{
			Kind:  query.AggCellHist,
			Field: FieldHilbert,
			Shift: uint8(2 * (order - q.HeatmapBits)),
		}
	}
	if n > 1 {
		return o, fmt.Errorf("core: at most one of count/distinct/heatmap may be set")
	}
	return o, nil
}

// Aggregate executes the query's pushed-down aggregate and reports
// the same metrics as Query: shards return partial aggregates
// (a count, a distinct set, a cell histogram) instead of documents,
// and the router merges them. The merged result is byte-identical to
// aggregating the shipped documents of the equivalent Query. It is
// Query for callers that require an aggregate: a query without one,
// or with one this store cannot serve, is an error.
func (s *Store) Aggregate(q STQuery) (*QueryResult, error) {
	if !q.HasAgg() {
		return nil, fmt.Errorf("core: no aggregate requested")
	}
	res := s.Query(q)
	if res.Err != nil {
		return nil, res.Err
	}
	return res, nil
}

// Filter builds the approach's query filter. For the baselines it is
// the plain $geoWithin + date-range conjunction; for the Hilbert
// approaches it additionally constrains hilbertIndex with the cover's
// ranges (HilbertConstraint), which mean and render as the $or of
// $gte/$lte ranges plus an $in of the isolated cells shown in Section
// 4.2.2. The returned cover stats and duration feed Table 8.
func (s *Store) Filter(q STQuery) (query.Filter, sfc.RangeStats, time.Duration) {
	conjuncts := []query.Filter{
		query.GeoWithin{Field: FieldLoc, Rect: q.Rect},
		query.Cmp{Field: FieldDate, Op: query.OpGTE, Value: q.From.UTC()},
		query.Cmp{Field: FieldDate, Op: query.OpLTE, Value: q.To.UTC()},
		nil, // the approach's key constraint, if any
	}
	var st sfc.RangeStats
	var coverTime time.Duration
	switch {
	case s.grid != nil:
		start := time.Now()
		ranges := s.grid.Cover(q.Rect)
		if s.cfg.MaxQueryRanges > 0 {
			ranges = sfc.CoalesceRanges(ranges, s.cfg.MaxQueryRanges)
		}
		coverTime = time.Since(start)
		conjuncts[3], st = HilbertConstraint(ranges), sfc.StatsOf(ranges)
	case s.sth != nil:
		start := time.Now()
		ranges := s.sth.Cover(q.Rect, q.From, q.To, 0)
		coverTime = time.Since(start)
		conjuncts[3], st = STHashConstraint(ranges), sfc.RangeStats{Ranges: len(ranges)}
	}
	// NewAnd drops a missing constraint and flattens a conjunction (an
	// empty cover's impossible pair); any other keeps the slice as is.
	if _, nested := conjuncts[3].(query.And); conjuncts[3] == nil || nested {
		return query.NewAnd(conjuncts...), st, coverTime
	}
	return query.And{Children: conjuncts}, st, coverTime
}

// STHashConstraint translates ST-Hash key ranges into the disjunctive
// string constraint on the stHash field.
func STHashConstraint(ranges []sthash.Range) query.Filter {
	if len(ranges) == 0 {
		return query.NewAnd(
			query.Cmp{Field: FieldSTHash, Op: query.OpGT, Value: "1"},
			query.Cmp{Field: FieldSTHash, Op: query.OpLT, Value: "0"},
		)
	}
	arms := make([]query.Filter, 0, len(ranges))
	for _, r := range ranges {
		arms = append(arms, query.NewAnd(
			query.Cmp{Field: FieldSTHash, Op: query.OpGTE, Value: r.Lo},
			query.Cmp{Field: FieldSTHash, Op: query.OpLTE, Value: r.Hi},
		))
	}
	return query.NewOr(arms...)
}

// HilbertConstraint translates curve ranges into the hilbertIndex
// constraint: a query.KeyRanges, or its $or for the covers a KeyRanges
// cannot hold — an empty one (the impossible pair, which a conjunction
// flattens) and one reaching 2^53 (a curve of order 27 or more).
func HilbertConstraint(ranges []sfc.Range) query.Filter {
	k := query.KeyRanges{Field: FieldHilbert, Ranges: ranges}
	if len(ranges) == 0 || ranges[len(ranges)-1].Hi >= 1<<53 {
		return k.Or()
	}
	return k
}

// planned is one query resolved into what the cluster executes, plus
// the filter-construction observables its result reports.
type planned struct {
	f         query.Filter
	opts      query.Opts
	cover     sfc.RangeStats
	coverTime time.Duration
}

// plan resolves a query's pushed-down options and builds its filter.
func (s *Store) plan(q STQuery) (planned, error) {
	o, err := s.opts(q)
	if err != nil {
		return planned{}, err
	}
	p := planned{opts: o}
	p.f, p.cover, p.coverTime = s.Filter(q)
	return p, nil
}

// run is the read path behind every single-query entry point: execute
// the planned filter through the cluster and report the result.
func (s *Store) run(p planned) *QueryResult {
	return s.result(p, s.cluster.QueryOpts(p.f, p.opts))
}

// result folds a routed result plus the filter-construction
// observables into the paper's per-query metrics, stamped with the
// cluster-wide cumulative plan-cache counters.
func (s *Store) result(p planned, routed *sharding.RoutedResult) *QueryResult {
	stats := QueryStats{
		Nodes:           routed.ShardsTargeted,
		MaxKeysExamined: routed.MaxKeysExamined,
		MaxDocsExamined: routed.MaxDocsExamined,
		NReturned:       routed.TotalReturned,
		Duration:        routed.Duration,
		CoverDuration:   p.coverTime,
		CoverRanges:     p.cover.Ranges - p.cover.Singles,
		CoverCells:      p.cover.Singles,
		Broadcast:       routed.Broadcast,
		Retries:         routed.Retries,
		Partial:         routed.Partial,
		FailedShards:    routed.FailedShards,
		ShardsPruned:    routed.ShardsPruned,
		ShardsSkipped:   routed.ShardsSkipped,
		CacheHit:        routed.CacheHit,
	}
	for _, st := range routed.PerShard {
		stats.IndexesUsed = append(stats.IndexesUsed, st.IndexUsed)
	}
	stats.PlanCacheHits, stats.PlanCacheMisses = s.cluster.PlanCacheStats()
	return &QueryResult{Docs: routed.Docs, Agg: routed.Agg, Stats: stats}
}

// Query executes the spatio-temporal query — documents, or the
// pushed-down aggregate when the query requests one — and reports the
// paper's metrics.
func (s *Store) Query(q STQuery) *QueryResult {
	p, err := s.plan(q)
	if err != nil {
		return &QueryResult{Err: err}
	}
	return s.run(p)
}

// QueryBatch executes independent spatio-temporal queries through the
// cluster's shared scatter-gather pool: every (query, shard)
// execution is one pool task, so a file of queries saturates the pool
// even when each query touches few shards. Results are in input
// order, each identical to what Query would have returned.
func (s *Store) QueryBatch(qs []STQuery) []*QueryResult {
	out := make([]*QueryResult, len(qs))
	var (
		at    []int // out index of each planned query
		plans []planned
		fs    []query.Filter
		opts  []query.Opts
	)
	for i, q := range qs {
		p, err := s.plan(q)
		if err != nil {
			out[i] = &QueryResult{Err: err}
			continue
		}
		at = append(at, i)
		plans = append(plans, p)
		fs = append(fs, p.f)
		opts = append(opts, p.opts)
	}
	for k, routed := range s.cluster.QueryBatchOpts(fs, opts) {
		out[at[k]] = s.result(plans[k], routed)
	}
	return out
}

// Count runs the query and returns only the result count (used by the
// result-set tables).
func (s *Store) Count(q STQuery) int {
	return s.Query(q).Stats.NReturned
}

// Explain returns the routing decision and each targeted shard's
// plan explanation for the query — the store-level analogue of the
// server's explain("executionStats").
func (s *Store) Explain(q STQuery) (shards []int, exps []*query.Explanation) {
	f, _, _ := s.Filter(q)
	return s.cluster.Explain(f)
}
