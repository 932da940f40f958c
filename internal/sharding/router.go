package sharding

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bson"
	"repro/internal/keyenc"
	"repro/internal/query"
)

// RoutedResult is the outcome of a cluster query: the merged
// documents plus the routing and per-shard execution statistics the
// paper's four evaluation metrics come from.
type RoutedResult struct {
	Docs []bson.Raw
	// ShardsTargeted is the number of nodes the query was routed to —
	// the paper's "Nodes" metric.
	ShardsTargeted int
	// TargetedShards lists the shard ids, ascending.
	TargetedShards []int
	// PerShard holds each targeted shard's execution stats, in
	// TargetedShards order. A shard that failed (see FailedShards)
	// contributes a zero entry with IndexUsed "".
	PerShard []query.ExecStats
	// MaxKeysExamined and MaxDocsExamined are the maxima over the
	// targeted shards — the paper's "keys examined" and "documents
	// examined" metrics (maximum per node, Section 5.1).
	MaxKeysExamined int
	MaxDocsExamined int
	// TotalReturned is the merged result count.
	TotalReturned int
	// Duration models the scatter-gather wall time: the makespan of
	// the per-shard execution times on the bounded worker pool
	// (Options.Parallel workers, greedy earliest-free dispatch in
	// TargetedShards order — with a pool at least as wide as the
	// target list this is the slowest shard, the paper's
	// dedicated-node model; narrower pools execute in waves and the
	// model accounts for them), plus the router's merge time.
	Duration time.Duration
	// Broadcast reports whether the router could not constrain the
	// shard key and had to target every shard owning chunks.
	Broadcast bool

	// FailedShards lists the targeted shards (ascending) that
	// produced no result — exhausted retries, hard-down, circuit
	// breaker open, or deadline expiry. Empty on the healthy path.
	FailedShards []int
	// Retries counts the retry attempts (beyond the first try) over
	// all targeted shards; 0 on the healthy path.
	Retries int
	// Partial reports a degraded answer: at least one targeted shard
	// failed. Under Policy AllowPartial the merged Docs hold every
	// healthy shard's results; under FailFast Docs are dropped and
	// Err is set — the result is never silently short.
	Partial bool
	// Err is the terminal error under Policy FailFast (nil otherwise
	// and on every healthy query).
	Err error

	// Agg is the merged aggregate of an aggregation-pushdown query
	// (opts.Agg active): each shard computed its partial over its own
	// documents and the router folded them in TargetedShards order —
	// canonical, so byte-identical at every completion order. Docs are
	// empty for such queries; that is the point.
	Agg *query.AggResult
	// ShardsPruned counts shards the router excluded because their
	// chunks' sketches proved them empty over the query's cell ranges —
	// shards a range-only router would have visited. See summary.go.
	ShardsPruned int
	// CacheHit reports that the whole result was served from the
	// router's epoch-validated result cache without touching a shard.
	CacheHit bool
}

// tupleRange is a half-open range [Lo, Hi) over encoded shard-key
// tuple space; nil means open on that side.
type tupleRange struct {
	Lo []byte
	Hi []byte
}

func (r tupleRange) overlapsChunk(ch *Chunk) bool {
	if r.Lo != nil && bytes.Compare(ch.Max, r.Lo) <= 0 {
		return false
	}
	if r.Hi != nil && bytes.Compare(r.Hi, ch.Min) <= 0 {
		return false
	}
	return true
}

// Query routes the filter to the shards owning potentially matching
// chunks, executes it on each, and merges the results. It is
// QueryOptsCtx without options or a caller deadline; the terminal
// error (possible only under fault injection or configured timeouts
// with Policy FailFast) is carried in RoutedResult.Err.
func (c *Cluster) Query(f query.Filter) *RoutedResult { return c.QueryOpts(f, query.Opts{}) }

// QueryCtx is QueryOptsCtx without pushed-down options.
func (c *Cluster) QueryCtx(ctx context.Context, f query.Filter) (*RoutedResult, error) {
	return c.QueryOptsCtx(ctx, f, query.Opts{})
}

// QueryOpts is QueryOptsCtx without a caller deadline.
func (c *Cluster) QueryOpts(f query.Filter, opts query.Opts) *RoutedResult {
	res, _ := c.QueryOptsCtx(context.Background(), f, opts)
	return res
}

// QueryOptsCtx is the full scatter-gather: route the filter, execute it
// on every targeted shard through the cluster's ShardConn fault
// boundary, and merge deterministically. The pushed-down options
// travel through the ShardConn boundary, so every shard stops early,
// top-k-bounds its scan or computes its partial aggregate, and the
// router merge is bounded by the limit instead of materializing every
// shard's full result. The per-shard executions fan out over a bounded
// worker pool of Options.Parallel goroutines (1 = sequential); each
// shard execution gets per-attempt deadlines, retries with capped
// exponential backoff on transient failures, and a per-shard circuit
// breaker. ctx bounds the whole scatter-gather and cancels
// cooperatively mid-scan. A shard that stays failed is handled per
// Resilience.Policy: FailFast aborts the query (non-nil error, Docs
// dropped), AllowPartial returns the healthy shards' merge with
// Partial=true and the failure listed in FailedShards.
//
// It is the batch path at n = 1 plus the result cache: a complete
// answer whose filter still routes to the same shards at unchanged
// content epochs is served without touching a shard.
func (c *Cluster) QueryOptsCtx(ctx context.Context, f query.Filter, opts query.Opts) (*RoutedResult, error) {
	qs := []scatterQuery{{f: f, opts: opts}}
	err := c.scatterGather(ctx, qs, true)
	return qs[0].res, err
}

// QueryBatchOpts is QueryBatchCtx without a caller deadline.
func (c *Cluster) QueryBatchOpts(fs []query.Filter, opts []query.Opts) []*RoutedResult {
	results, _ := c.QueryBatchCtx(context.Background(), fs, opts)
	return results
}

// QueryBatchCtx routes and executes independent filters through one
// routing pass and one shared worker pool: every (query, shard)
// execution is a pool task, so a batch of single-shard queries and a
// single broadcast query parallelise equally well. opts must be nil
// (no pushdown) or aligned with fs. Results are in input order; each
// entry is merged deterministically exactly like QueryOptsCtx's, but
// batches are throughput-oriented one-shot scans and do not consult
// the result cache. cmd/stquery -f drives this.
//
// Fault handling is per entry (retries, breaker, partial marking),
// but under Policy FailFast the batch is one operation: the first
// unrecoverable shard failure cancels the whole batch, and the
// returned error is the first entry's terminal error (each entry's
// own is in its Err field). ctx bounds the whole batch.
func (c *Cluster) QueryBatchCtx(ctx context.Context, fs []query.Filter, opts []query.Opts) ([]*RoutedResult, error) {
	qs := make([]scatterQuery, len(fs))
	for i, f := range fs {
		qs[i].f = f
		if opts != nil {
			qs[i].opts = opts[i]
		}
	}
	err := c.scatterGather(ctx, qs, false)
	results := make([]*RoutedResult, len(qs))
	for i := range qs {
		results[i] = qs[i].res
	}
	return results, err
}

// scatterQuery is one filter's slot in a scatter-gather: the request,
// its routed result, the per-shard outcomes the scatter fills (aligned
// with res.TargetedShards), the index of its first task in the
// scatter's flat task numbering, and the result-cache key to fill on a
// complete answer ("" when the query bypasses the cache).
type scatterQuery struct {
	f        query.Filter
	opts     query.Opts
	res      *RoutedResult
	outcomes []shardOutcome
	first    int
	cacheKey string
}

// scatterGather is the one scatter/fold body behind every query entry
// point. It fills qs[i].res and returns the first entry's terminal
// error.
//
// The cluster read-lock is held for the whole scatter-gather: queries
// run concurrently with each other but never interleave with a chunk
// migration, standing in for the ownership filtering a real cluster
// applies to in-flight migrations. The merge is deterministic: docs
// and per-shard stats are assembled in TargetedShards order, so the
// output is byte-identical regardless of shard completion order.
func (c *Cluster) scatterGather(ctx context.Context, qs []scatterQuery, cached bool) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	qctx, abort := context.WithCancel(ctx)
	defer abort()

	tasks := 0
	for i := range qs {
		q := &qs[i]
		q.first = tasks
		// Shape, bounds and access paths are functions of the filter
		// alone: derive them here once, for the route below and for
		// every shard execution the scatter hands the filter to.
		q.f = query.Prepare(q.f)
		targets, broadcast, pruned := c.routeLocked(q.f)
		// Result cache probe: valid only if the filter still routes to
		// the same shard set and none of those shards' content epochs
		// moved.
		if cached && c.rcache != nil {
			var epochs [16]uint64
			hit, key := c.rcache.probe(q.f, q.opts, targets, c.epochsOfLocked(epochs[:0], targets))
			if hit != nil {
				hit.ShardsPruned = len(pruned)
				q.res = hit
				continue
			}
			q.cacheKey = key
		}
		q.res = &RoutedResult{
			ShardsTargeted: len(targets),
			TargetedShards: targets,
			Broadcast:      broadcast,
			ShardsPruned:   len(pruned),
		}
		q.outcomes = make([]shardOutcome, len(targets))
		tasks += len(targets)
	}

	failFast := c.opts.Resilience.Policy == FailFast
	c.scatterLocked(tasks, func(i int) {
		// Task i belongs to the last query whose first task is <= i; a
		// query without tasks (cache hit, empty route) shares its
		// successor's first and so is never that one.
		q := &qs[sort.Search(len(qs), func(k int) bool { return qs[k].first > i })-1]
		ti := i - q.first
		q.outcomes[ti] = c.runShard(qctx, q.res.TargetedShards[ti], q.f, q.opts)
		if q.outcomes[ti].err != nil && failFast {
			abort() // cancel the in-flight sibling executions
		}
	})

	var firstErr error
	for i := range qs {
		q := &qs[i]
		if q.res.CacheHit {
			continue
		}
		c.foldLocked(q.res, q.outcomes, q.opts)
		// Cache only complete answers.
		if q.cacheKey != "" && q.res.Err == nil && !q.res.Partial && ctx.Err() == nil {
			c.rcache.put(q.cacheKey, q.res.TargetedShards, c.epochsOfLocked(nil, q.res.TargetedShards), q.res)
		}
		if firstErr == nil {
			firstErr = q.res.Err
		}
	}
	return firstErr
}

// shardOutcome is one shard's fate within a scatter.
type shardOutcome struct {
	res     *query.Result
	retries int
	err     error
}

// runShard executes the filter on one shard through the fault
// boundary: circuit-breaker admission, then up to maxAttempts
// attempts, each bounded by Resilience.ShardTimeout when one is set,
// with capped exponential backoff (deterministic jitter, floored by a
// shed's retry-after hint) between transient failures.
func (c *Cluster) runShard(ctx context.Context, sid int, f query.Filter, opts query.Opts) shardOutcome {
	timeout := c.opts.Resilience.ShardTimeout
	brk := c.breakers[sid]
	var out shardOutcome
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			out.err = err
			return out
		}
		if !brk.allow() {
			out.err = &ShardError{Shard: sid, Err: ErrBreakerOpen}
			return out
		}
		actx, cancel := ctx, func() {}
		if timeout > 0 {
			actx, cancel = context.WithTimeout(ctx, timeout)
		}
		res, err := c.conn.Query(actx, c.shards[sid], f, c.opts.QueryConfig, opts)
		cancel()
		switch {
		case err == nil:
			brk.onSuccess()
			out.res = res
			return out
		case errors.Is(err, context.Canceled) || retryAfter(err) > 0:
			// No verdict on the shard: the query was aborted elsewhere
			// (FailFast sibling failure, caller cancel), or a busy server
			// shed the attempt as backpressure. Either may have held the
			// half-open probe slot: hand it back.
			brk.onAbandon()
		default:
			// Everything else — injected faults, per-attempt timeouts —
			// feeds the breaker's failure tracking.
			brk.onFailure()
		}
		if !IsTransient(err) || attempt+1 >= maxAttempts {
			out.err = err
			return out
		}
		out.retries++
		if !sleepCtx(ctx, retryDelay(sid, attempt, err)) {
			out.err = ctx.Err()
			return out
		}
	}
}

// foldLocked turns the per-shard outcomes into the routed result:
// failure bookkeeping (FailedShards, Retries, Partial, Err per the
// policy) followed by the deterministic merge of the healthy results.
func (c *Cluster) foldLocked(res *RoutedResult, outcomes []shardOutcome, opts query.Opts) {
	for i, o := range outcomes {
		if o.err != nil {
			outcomes[i].res = nil
			res.FailedShards = append(res.FailedShards, res.TargetedShards[i])
		}
		res.Retries += o.retries
	}
	mergeLocked(res, outcomes, c.opts.Parallel, opts)
	if len(res.FailedShards) == 0 {
		return
	}
	res.Partial = true
	if c.opts.Resilience.Policy == FailFast {
		// FailFast never hands out a short merge: keep the per-shard
		// stats for observability, drop the merged docs, count and
		// aggregate, surface the root cause.
		res.Docs = nil
		res.TotalReturned = 0
		res.Agg = nil
		res.Err = rootCause(outcomes)
	}
}

// rootCause picks the terminal error: the first failure that is not a
// secondary cancellation (a FailFast abort cancels the siblings of
// the shard that actually failed), falling back to the first failure.
func rootCause(outcomes []shardOutcome) error {
	var first error
	for _, o := range outcomes {
		if o.err == nil {
			continue
		}
		if first == nil {
			first = o.err
		}
		if !errors.Is(o.err, context.Canceled) {
			return o.err
		}
	}
	return first
}

// scatterLocked runs fn(0..n-1) on the cluster's bounded worker pool.
// The caller holds at least the read lock (so opts.Parallel is
// stable). With a pool width of 1 — or a single task — it degenerates
// to the plain sequential loop the simulator always had, keeping the
// parallel=1 configuration bit-identical to the historical behaviour.
func (c *Cluster) scatterLocked(n int, fn func(i int)) {
	workers := c.opts.Parallel
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// mergeLocked folds the per-shard results into res in TargetedShards
// order; a nil result is a failed shard (zero stats, no docs). The
// merge is bounded by the pushed-down options: a natural-order limit
// concatenates only until the quota is met, and an ordered query runs
// a k-way heap merge over the per-shard sorted streams, so a small
// limit over a wide broadcast never materializes more than
// limit-many documents. The modelled Duration is the pool makespan
// of the per-shard execution times at the given width plus the
// router's own merge time — order-independent, so identical at every
// completion order.
func mergeLocked(res *RoutedResult, outcomes []shardOutcome, width int, opts query.Opts) {
	durs := make([]time.Duration, 0, len(outcomes))
	total := 0
	for _, o := range outcomes {
		r := o.res
		if r == nil {
			continue
		}
		durs = append(durs, r.Stats.Duration)
		total += len(r.Docs)
	}
	mergeStart := time.Now()
	if len(outcomes) > 0 {
		res.PerShard = make([]query.ExecStats, 0, len(outcomes))
	}
	for _, o := range outcomes {
		r := o.res
		if r == nil {
			res.PerShard = append(res.PerShard, query.ExecStats{})
			continue
		}
		res.PerShard = append(res.PerShard, r.Stats)
		if r.Stats.KeysExamined > res.MaxKeysExamined {
			res.MaxKeysExamined = r.Stats.KeysExamined
		}
		if r.Stats.DocsExamined > res.MaxDocsExamined {
			res.MaxDocsExamined = r.Stats.DocsExamined
		}
	}
	if opts.Agg.Active() {
		// Aggregation pushdown: fold the partial aggregates in
		// TargetedShards order. Merge is commutative and every partial
		// is canonical, so the result is identical at every completion
		// order; no documents ship.
		agg := &query.AggResult{Kind: opts.Agg.Kind}
		for _, o := range outcomes {
			if o.res != nil {
				agg.Merge(o.res.Agg)
			}
		}
		res.Agg = agg
		res.Duration = poolMakespan(durs, width) + time.Since(mergeStart)
		return
	}
	if opts.Limit > 0 && total > opts.Limit {
		total = opts.Limit
	}
	if total > 0 {
		res.Docs = make([]bson.Raw, 0, total)
		if opts.OrderBy != "" {
			mergeOrdered(res, outcomes, opts, total)
		} else {
			// Natural order: concatenate in TargetedShards order and
			// stop at the quota — byte-identical to concatenating
			// everything and truncating, since truncation only ever
			// keeps a prefix of the concatenation.
			for _, o := range outcomes {
				r := o.res
				if r == nil {
					continue
				}
				take := len(r.Docs)
				if rem := total - len(res.Docs); take > rem {
					take = rem
				}
				res.Docs = append(res.Docs, r.Docs[:take]...)
				if len(res.Docs) == total {
					break
				}
			}
		}
	}
	res.TotalReturned = len(res.Docs)
	res.Duration = poolMakespan(durs, width) + time.Since(mergeStart)
}

// mergeCursor is one shard's position in the ordered k-way merge.
type mergeCursor struct {
	docs []bson.Raw
	keys [][]byte
	pos  int
	// shardPos is the shard's index in TargetedShards: the tie-break
	// that makes the merge equal to stably sorting the TargetedShards-
	// order concatenation.
	shardPos int
}

// mergeOrdered streams the per-shard sorted results through a k-way
// min-heap until `total` documents are out. Each shard's stream is
// already in (key, within-shard arrival) order, so popping by
// (key, shardPos) yields exactly the stable sort of the concatenated
// streams — the same order an unlimited single-stream sort-then-
// truncate would produce.
func mergeOrdered(res *RoutedResult, outcomes []shardOutcome, opts query.Opts, total int) {
	heap := make([]mergeCursor, 0, len(outcomes))
	for i, o := range outcomes {
		r := o.res
		if r == nil || len(r.Docs) == 0 {
			continue
		}
		heap = append(heap, mergeCursor{docs: r.Docs, keys: r.Keys, pos: 0, shardPos: i})
	}
	less := func(a, b *mergeCursor) bool {
		c := bytes.Compare(a.keys[a.pos], b.keys[b.pos])
		if opts.Desc {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
		return a.shardPos < b.shardPos
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			smallest := i
			if l < len(heap) && less(&heap[l], &heap[smallest]) {
				smallest = l
			}
			if r < len(heap) && less(&heap[r], &heap[smallest]) {
				smallest = r
			}
			if smallest == i {
				return
			}
			heap[i], heap[smallest] = heap[smallest], heap[i]
			i = smallest
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(res.Docs) < total && len(heap) > 0 {
		cur := &heap[0]
		res.Docs = append(res.Docs, cur.docs[cur.pos])
		cur.pos++
		if cur.pos == len(cur.docs) {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(0)
	}
}

// poolMakespan models the scatter wall time of the per-shard
// execution times on a pool of width workers: greedy in-order
// dispatch to the earliest-free worker, exactly scatterLocked's task
// counter. A pool at least as wide as the task list yields the
// maximum (every shard on its own worker — the paper's
// dedicated-node deployment); width 1 yields the sum (the historical
// sequential router); anything between executes in waves.
func poolMakespan(durs []time.Duration, width int) time.Duration {
	if len(durs) == 0 {
		return 0
	}
	if width >= len(durs) {
		var slowest time.Duration
		for _, d := range durs {
			if d > slowest {
				slowest = d
			}
		}
		return slowest
	}
	if width < 1 {
		width = 1
	}
	workers := make([]time.Duration, width)
	for _, d := range durs {
		wi := 0
		for j := 1; j < width; j++ {
			if workers[j] < workers[wi] {
				wi = j
			}
		}
		workers[wi] += d
	}
	var makespan time.Duration
	for _, w := range workers {
		if w > makespan {
			makespan = w
		}
	}
	return makespan
}

// Explain routes the filter and returns each targeted shard's full
// plan explanation, in TargetedShards order, followed by one entry per
// sketch-pruned shard (Pruned = true) so the plan shows what the
// summaries saved. Every entry also carries the router's result-cache
// view: whether this exact query would hit, and the cumulative
// hit/miss counters.
func (c *Cluster) Explain(f query.Filter) (targets []int, exps []*query.Explanation) {
	return c.ExplainOpts(f, query.Opts{})
}

// ExplainOpts is Explain for a query with pushed-down options (the
// cache key depends on them).
func (c *Cluster) ExplainOpts(f query.Filter, opts query.Opts) (targets []int, exps []*query.Explanation) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	executed, _, pruned := c.routeLocked(f)
	cacheState := "off"
	var hits, misses int64
	if c.rcache != nil {
		cacheState = "miss"
		if key, ok := resultCacheKey(nil, f, opts); ok &&
			c.rcache.peek(key, executed, c.epochsOfLocked(nil, executed)) {
			cacheState = "hit"
		}
		hits, misses = c.rcache.stats()
	}
	for _, sid := range executed {
		e := query.Explain(c.shards[sid].Coll, f, c.opts.QueryConfig)
		e.ResultCacheState = cacheState
		e.ResultCacheHits = hits
		e.ResultCacheMiss = misses
		exps = append(exps, e)
	}
	for _, sid := range pruned {
		e := query.Explain(c.shards[sid].Coll, f, c.opts.QueryConfig)
		e.Pruned = true
		e.ResultCacheState = cacheState
		e.ResultCacheHits = hits
		e.ResultCacheMiss = misses
		exps = append(exps, e)
	}
	return append(executed, pruned...), exps
}

// Route returns the routing decision a scatter-gather makes for the
// filter, without executing anything: the target shards, whether the
// route is a broadcast, and the sketch-pruned shards (both ascending).
func (c *Cluster) Route(f query.Filter) (targets []int, broadcast bool, pruned []int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.routeLocked(f)
}

// routeLocked computes the target shard ids for a filter; the caller
// holds at least the cluster read-lock. It mirrors mongos: extract
// the filter's bounds on the shard-key fields, map them to tuple
// ranges, and collect the shards owning chunks that intersect any
// range. A filter that does not constrain the leading shard-key field
// becomes a broadcast (Section 4.1.2: "broadcast operations occur if
// a query's field constraints are not found in the shard key").
//
// On top of the range overlap, the per-chunk sketches prune chunks
// that provably hold no document in the query's coarse-cell ranges —
// chunk byte-ranges tile the whole key space, so overlap alone visits
// shards that own only empty stretches of it. pruned lists the shards
// (ascending) the overlap test targeted but every overlapping chunk
// of which proved empty; pruning is prove-empty only, so a pruned
// shard could not have contributed a document.
//
// The overlap test is one merge walk over the chunk map, ascending by
// Min, and the tuple ranges, ascending by Lo: O(chunks + ranges).
func (c *Cluster) routeLocked(f query.Filter) (shards []int, broadcast bool, pruned []int) {
	if !c.sharded {
		return []int{0}, false, nil
	}
	b := query.BoundsOf(f)
	if b.Impossible() {
		return nil, false, nil
	}
	// marks holds, per shard id, what the walk found: an overlapping
	// chunk (routeCandidate) and one the sketches could not rule out
	// (routeTarget).
	var stack [64]uint8
	marks := stack[:0]
	if n := len(c.shards); n <= len(stack) {
		marks = stack[:n]
	} else {
		marks = make([]uint8, n)
	}
	ranges := c.shardKeyRanges(b)
	if ranges == nil {
		broadcast = true
		for _, ch := range c.chunks {
			if ch.Docs > 0 {
				marks[ch.Shard] |= routeTarget
			}
		}
		return markedShards(marks, routeTarget, 0), broadcast, nil
	}
	var cells []cellRange
	consult := false
	if c.summariesOnLocked() {
		if set, ok := b.Intervals(c.key.Fields[0]); ok && len(set) > 0 {
			cells, consult = c.pruneCellRangesLocked(set)
		}
	}
	if !slices.IsSortedFunc(ranges, compareLo) {
		slices.SortFunc(ranges, compareLo)
	}
	j := 0
	for _, ch := range c.chunks {
		// A range that ends at or before this chunk's Min ends before
		// every later chunk's too. The first range still open decides:
		// if it starts at or past this chunk's Max, so does every later
		// one.
		for j < len(ranges) && ranges[j].Hi != nil && bytes.Compare(ranges[j].Hi, ch.Min) <= 0 {
			j++
		}
		if j == len(ranges) {
			break
		}
		if ch.Docs == 0 || !ranges[j].overlapsChunk(ch) {
			continue
		}
		marks[ch.Shard] |= routeCandidate
		if !consult || chunkMayMatchLocked(ch, cells) {
			marks[ch.Shard] |= routeTarget
		}
	}
	return markedShards(marks, routeTarget, 0), false, markedShards(marks, routeCandidate, routeTarget)
}

// Route marks, per shard id.
const (
	routeCandidate uint8 = 1 << iota
	routeTarget
)

// markedShards lists, ascending, the shard ids whose marks include
// every bit of want and none of unwanted; nil when there are none.
func markedShards(marks []uint8, want, unwanted uint8) []int {
	n := 0
	for _, m := range marks {
		if m&want == want && m&unwanted == 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for sid, m := range marks {
		if m&want == want && m&unwanted == 0 {
			out = append(out, sid)
		}
	}
	return out
}

func compareLo(a, b tupleRange) int { return bytes.Compare(a.Lo, b.Lo) }

// shardKeyRanges translates the filter bounds into tuple ranges; nil
// means the shard key is unconstrained (broadcast). Every tuple key is
// a window of one buffer.
func (c *Cluster) shardKeyRanges(b query.FieldBounds) []tupleRange {
	set, ok := b.Intervals(c.key.Fields[0])
	if !ok || len(set) == 0 {
		return nil
	}
	// Sized for a pair of numeric keys per interval.
	keys := make(keyenc.Buf, 0, 20*len(set))
	out := make([]tupleRange, 0, len(set))
	if c.key.Strategy == HashedSharding {
		// Only equality predicates route under hashed sharding; any
		// range forces a broadcast. Each point covers every tuple
		// extending its hash's encoding.
		for _, iv := range set {
			if !iv.IsPoint() {
				return nil
			}
			var h any = HashValue(iv.Lo)
			hi := keys.Append(nil, h)
			out = append(out, tupleRange{Lo: keys.Append(nil, h), Hi: keyenc.AppendPrefixUpperBound(hi[:0], hi)})
		}
		return out
	}
	for _, iv := range set {
		// For a point on the leading field, the next field's bounds
		// can narrow the range further (compound shard keys).
		if iv.IsPoint() && len(c.key.Fields) > 1 {
			if nextSet, ok := b.Intervals(c.key.Fields[1]); ok && len(nextSet) > 0 {
				prefix := keys.Append(nil, iv.Lo)
				for _, niv := range nextSet {
					out = append(out, composeRange(&keys, prefix, niv))
				}
				continue
			}
		}
		out = append(out, composeRange(&keys, nil, iv))
	}
	return out
}

// composeRange builds the [Lo, Hi) byte range of one value interval
// under an encoded tuple prefix, writing its keys into keys.
func composeRange(keys *keyenc.Buf, prefix []byte, iv query.ValueInterval) tupleRange {
	r := tupleRange{Lo: keys.Append(prefix, iv.Lo), Hi: keys.Append(prefix, iv.Hi)}
	if !iv.LoIncl {
		r.Lo = keyenc.AppendPrefixUpperBound(r.Lo[:0], r.Lo)
	}
	if iv.HiIncl {
		r.Hi = keyenc.AppendPrefixUpperBound(r.Hi[:0], r.Hi)
	}
	return r
}
