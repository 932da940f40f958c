package sharding

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/keyenc"
	"repro/internal/query"
)

// stressFilters is the mixed workload the parallel-execution tests
// run: targeted ranges, a point lookup, a compound-key narrowing, and
// two broadcasts (date-only and geo-only).
func stressFilters() []query.Filter {
	return []query.Filter{
		query.NewAnd(
			query.Cmp{Field: "hilbertIndex", Op: query.OpGTE, Value: int64(100)},
			query.Cmp{Field: "hilbertIndex", Op: query.OpLTE, Value: int64(900)},
		),
		query.Cmp{Field: "hilbertIndex", Op: query.OpEQ, Value: int64(250)},
		query.NewAnd(
			query.Cmp{Field: "hilbertIndex", Op: query.OpEQ, Value: int64(250)},
			query.TimeRangeFilter("date", baseTime, baseTime.Add(15*24*time.Hour)),
		),
		query.TimeRangeFilter("date", baseTime, baseTime.Add(48*time.Hour)),
		query.GeoWithin{Field: "location", Rect: geo.NewRect(23.2, 37.2, 23.6, 37.6)},
		query.NewAnd(
			query.Cmp{Field: "hilbertIndex", Op: query.OpGTE, Value: int64(3000)},
			query.Cmp{Field: "hilbertIndex", Op: query.OpLTE, Value: int64(4095)},
			query.TimeRangeFilter("date", baseTime, baseTime.Add(10*24*time.Hour)),
		),
	}
}

// pushdownOptSets is every kind of pushed-down execution: plain,
// limited, top-k both ways, and each aggregate.
func pushdownOptSets() map[string]query.Opts {
	return map[string]query.Opts{
		"plain":     {},
		"limit":     {Limit: 7},
		"top-k":     {Limit: 5, OrderBy: "date"},
		"top-k-rev": {Limit: 5, OrderBy: "date", Desc: true},
		"count":     {Agg: query.AggSpec{Kind: query.AggCount}},
		"distinct":  {Agg: query.AggSpec{Kind: query.AggDistinct, Field: "hilbertIndex"}},
		"cells":     {Agg: query.AggSpec{Kind: query.AggCellHist, Field: "hilbertIndex", Shift: 6}},
	}
}

// idSetOf reduces a routed result to a sorted multiset of _id values,
// the representation that is invariant under chunk migrations (which
// reshuffle shard ownership and therefore merge order).
func idSetOf(res *RoutedResult) []string {
	ids := make([]string, 0, len(res.Docs))
	for _, d := range res.Docs {
		ids = append(ids, fmt.Sprintf("%v", d.Get("_id")))
	}
	slices.Sort(ids)
	return ids
}

// TestParallelQueryIdenticalToSequential: at every pool width the
// merged docs (order included), per-shard stats and all paper metrics
// must be byte-identical to the parallel=1 execution.
func TestParallelQueryIdenticalToSequential(t *testing.T) {
	c, _ := loadCluster(t, 3000, hilbertDateKey(), smallOpts())
	for _, f := range stressFilters() {
		c.SetParallel(1)
		seq := c.Query(f)
		for _, width := range []int{2, 4, 8} {
			c.SetParallel(width)
			par := c.Query(f)
			if !reflect.DeepEqual(par.Docs, seq.Docs) {
				t.Fatalf("parallel=%d: doc stream differs from sequential for %s", width, f)
			}
			if par.TotalReturned != seq.TotalReturned ||
				par.MaxKeysExamined != seq.MaxKeysExamined ||
				par.MaxDocsExamined != seq.MaxDocsExamined ||
				par.ShardsTargeted != seq.ShardsTargeted ||
				par.Broadcast != seq.Broadcast ||
				!reflect.DeepEqual(par.TargetedShards, seq.TargetedShards) {
				t.Fatalf("parallel=%d: metrics differ from sequential for %s", width, f)
			}
			if len(par.PerShard) != len(seq.PerShard) {
				t.Fatalf("parallel=%d: PerShard length differs", width)
			}
			for i := range par.PerShard {
				p, s := par.PerShard[i], seq.PerShard[i]
				if p.KeysExamined != s.KeysExamined || p.DocsExamined != s.DocsExamined ||
					p.NReturned != s.NReturned || p.IndexUsed != s.IndexUsed {
					t.Fatalf("parallel=%d: per-shard stats differ at %d", width, i)
				}
			}
		}
	}
}

// TestQueryBatchMatchesIndividualQueries: the batch path must return,
// per entry, exactly what the one-at-a-time path returns — the guard
// on the scatter/fold body the two share. Inputs: plain, limited,
// top-k and aggregate options, on a healthy cluster and with a shard
// down under both failure policies.
func TestQueryBatchMatchesIndividualQueries(t *testing.T) {
	c, _ := loadCluster(t, 2000, hilbertDateKey(), smallOpts())
	fs := stressFilters()
	optSets := pushdownOptSets()
	// The down shard is one every broadcast entry targets.
	down := c.Query(fs[3]).TargetedShards[0]
	fc := NewFaultConn(nil, 11)
	fc.SetFault(down, FaultSpec{Down: true})
	defer func() { c.SetConn(nil); c.SetResilience(Resilience{}) }()

	for _, mode := range []struct {
		name   string
		conn   ShardConn
		policy Policy
	}{
		{"healthy", nil, FailFast},
		{"down/partial", fc, AllowPartial},
		{"down/failfast", fc, FailFast},
	} {
		c.SetConn(mode.conn)
		c.SetResilience(Resilience{Policy: mode.policy})
		for name, o := range optSets {
			label := mode.name + "/" + name
			c.SetParallel(1)
			opts := make([]query.Opts, len(fs))
			want := make([]*RoutedResult, len(fs))
			degraded := 0
			for i, f := range fs {
				opts[i] = o
				want[i] = c.QueryOpts(f, o)
				if want[i].Partial {
					degraded++
				}
			}
			if (degraded > 0) != (mode.conn != nil) {
				t.Fatalf("%s: %d degraded entries", label, degraded)
			}
			for _, width := range []int{1, 4} {
				c.SetParallel(width)
				got := c.QueryBatchOpts(fs, opts)
				if len(got) != len(fs) {
					t.Fatalf("%s: batch returned %d results for %d filters", label, len(got), len(fs))
				}
				for i := range fs {
					g, w := got[i], want[i]
					// Under FailFast the batch is one operation: an entry
					// the one-at-a-time path completes may instead have been
					// cancelled by a sibling's failure (never the other way
					// round), and which siblings a failure cancelled depends
					// on completion order — but a failed entry is never
					// silently short.
					if g.Err != nil {
						if mode.policy != FailFast || mode.conn == nil {
							t.Fatalf("%s parallel=%d: batch entry %d failed: %v", label, width, i, g.Err)
						}
						if g.Docs != nil || g.Agg != nil || !g.Partial || len(g.FailedShards) == 0 {
							t.Fatalf("%s parallel=%d: failed entry %d kept an answer", label, width, i)
						}
						continue
					}
					if !reflect.DeepEqual(g.Docs, w.Docs) {
						t.Fatalf("%s parallel=%d: batch entry %d doc stream differs", label, width, i)
					}
					if (g.Agg == nil) != (w.Agg == nil) || (w.Agg != nil && !w.Agg.Equal(g.Agg)) {
						t.Fatalf("%s parallel=%d: batch entry %d aggregate %+v, want %+v", label, width, i, g.Agg, w.Agg)
					}
					if g.TotalReturned != w.TotalReturned ||
						g.MaxKeysExamined != w.MaxKeysExamined ||
						g.MaxDocsExamined != w.MaxDocsExamined ||
						g.Partial != w.Partial || (g.Err == nil) != (w.Err == nil) ||
						!reflect.DeepEqual(g.FailedShards, w.FailedShards) ||
						!reflect.DeepEqual(g.TargetedShards, w.TargetedShards) {
						t.Fatalf("%s parallel=%d: batch entry %d metrics differ", label, width, i)
					}
				}
			}
		}
	}
	// An empty batch is legal.
	if got := c.QueryBatchOpts(nil, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

// TestPreparedExecutionMatchesBare: the scatter hands every shard one
// query.Prepare'd filter; a shard handed the bare filter derives the
// same plan on its own. For every filter and pushdown of the batch
// test, both must produce identical results, stats, trials and
// plan-cache counter movements on every shard — cold (each shard
// plans and remembers), warm (each shard hits), when the cached plan
// blows its budget and is evicted and replanned, and when one prepared
// value is shared by concurrent executions (run under -race).
func TestPreparedExecutionMatchesBare(t *testing.T) {
	c, _ := loadCluster(t, 2000, hilbertDateKey(), smallOpts())
	cfg := c.Options().QueryConfig
	shards := c.Shards()
	clearCaches := func() {
		for _, sh := range shards {
			query.ClearPlanCache(sh.Coll)
		}
	}
	type outcome struct {
		results      []*query.Result
		hits, misses int64
	}
	onEveryShard := func(f query.Filter, o query.Opts, concurrent bool) outcome {
		h0, m0 := c.PlanCacheStats()
		out := outcome{results: make([]*query.Result, len(shards))}
		var wg sync.WaitGroup
		for i, sh := range shards {
			run := func(i int, sh *Shard) { out.results[i] = query.ExecuteOpts(sh.Coll, f, cfg, o) }
			if !concurrent {
				run(i, sh)
				continue
			}
			wg.Add(1)
			go func(i int, sh *Shard) {
				defer wg.Done()
				run(i, sh)
			}(i, sh)
		}
		wg.Wait()
		h1, m1 := c.PlanCacheStats()
		out.hits, out.misses = h1-h0, m1-m0
		return out
	}
	compare := func(label string, bare, prepared outcome) {
		t.Helper()
		if bare.hits != prepared.hits || bare.misses != prepared.misses {
			t.Fatalf("%s: plan cache moved %d hits/%d misses bare, %d/%d prepared",
				label, bare.hits, bare.misses, prepared.hits, prepared.misses)
		}
		for i := range shards {
			b, p := bare.results[i], prepared.results[i]
			b.Stats.Duration, p.Stats.Duration = 0, 0
			if !reflect.DeepEqual(b, p) {
				t.Fatalf("%s: shard %d: prepared execution differs from bare\nbare     %+v\nprepared %+v", label, i, b.Stats, p.Stats)
			}
		}
	}
	// narrowTwin has the shape of the two range filters but touches
	// almost nothing, so the plan it leaves cached has the minimum
	// works budget — which those filters then blow on the bigger shards.
	narrowTwin := map[int]query.Filter{
		0: query.NewAnd(
			query.Cmp{Field: "hilbertIndex", Op: query.OpGTE, Value: int64(100)},
			query.Cmp{Field: "hilbertIndex", Op: query.OpLTE, Value: int64(100)},
		),
		5: query.NewAnd(
			query.Cmp{Field: "hilbertIndex", Op: query.OpGTE, Value: int64(3000)},
			query.Cmp{Field: "hilbertIndex", Op: query.OpLTE, Value: int64(3000)},
			query.TimeRangeFilter("date", baseTime, baseTime.Add(time.Hour)),
		),
	}
	replans := int64(0)
	for fi, f := range stressFilters() {
		for name, o := range pushdownOptSets() {
			label := fmt.Sprintf("filter %d/%s", fi, name)
			clearCaches()
			coldBare := onEveryShard(f, o, false)
			clearCaches()
			compare(label+"/cold", coldBare, onEveryShard(query.Prepare(f), o, false))
			if coldBare.misses != int64(len(shards)) {
				t.Fatalf("%s: %d cold executions counted %d misses", label, len(shards), coldBare.misses)
			}
			warmBare := onEveryShard(f, o, false)
			compare(label+"/warm", warmBare, onEveryShard(query.Prepare(f), o, false))
			compare(label+"/shared", warmBare, onEveryShard(query.Prepare(f), o, true))
			if warmBare.hits != int64(len(shards)) || warmBare.misses != 0 {
				t.Fatalf("%s: %d warm executions counted %d hits, %d misses", label, len(shards), warmBare.hits, warmBare.misses)
			}
			if twin, ok := narrowTwin[fi]; ok {
				seed := func() { clearCaches(); onEveryShard(twin, query.Opts{}, false) }
				seed()
				replanBare := onEveryShard(f, o, false)
				seed()
				compare(label+"/replan", replanBare, onEveryShard(query.Prepare(f), o, false))
				for _, r := range replanBare.results {
					// The twin's plan is cached with the minimum budget of
					// 200 works; an execution that did more was cut off
					// there, evicted the plan and ran again replanned.
					if r.Stats.KeysExamined+r.Stats.DocsExamined > 200 {
						replans++
					}
				}
			}
		}
	}
	if replans == 0 {
		t.Fatal("no execution outran its seeded plan: the replan case was not exercised")
	}
}

// TestConcurrentQueryExplainMigrationStress is the router's
// concurrency contract, meant to run under -race: many goroutines
// issue parallel queries, batches and explains while the main
// goroutine keeps migrating chunks back and forth between two zone
// layouts. Every single query observation must equal the sequential
// pre-stress baseline — migrations may reshuffle ownership (and hence
// merge order and per-node maxima) but never results.
func TestConcurrentQueryExplainMigrationStress(t *testing.T) {
	c, _ := loadCluster(t, 2000, hilbertDateKey(), smallOpts())
	c.SetParallel(4)
	fs := stressFilters()

	// Sequential baseline before any stress.
	baseline := make([][]string, len(fs))
	for i, f := range fs {
		baseline[i] = idSetOf(c.Query(f))
	}

	mk := func(v any) []byte { return keyenc.Encode(v) }
	layoutA := []Zone{
		{Name: "a0", Min: mk(bson.MinKey), Max: mk(int64(2048)), Shard: 1},
		{Name: "a1", Min: mk(int64(2048)), Max: mk(bson.MaxKey), Shard: 2},
	}
	layoutB := []Zone{
		{Name: "b0", Min: mk(bson.MinKey), Max: mk(int64(1024)), Shard: 3},
		{Name: "b1", Min: mk(int64(1024)), Max: mk(bson.MaxKey), Shard: 0},
	}

	const goroutines = 8
	const iters = 30
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				qi := (g + i) % len(fs)
				switch {
				case i%7 == 3:
					// Planner path under concurrency.
					c.Explain(fs[qi])
				case i%5 == 4:
					for bi, res := range c.QueryBatchOpts(fs, nil) {
						if got := idSetOf(res); !reflect.DeepEqual(got, baseline[bi]) {
							t.Errorf("goroutine %d iter %d: batch entry %d diverged from baseline", g, i, bi)
							return
						}
					}
				default:
					if got := idSetOf(c.Query(fs[qi])); !reflect.DeepEqual(got, baseline[qi]) {
						t.Errorf("goroutine %d iter %d: query %d diverged from baseline", g, i, qi)
						return
					}
				}
			}
		}(g)
	}

	// Interleave chunk migrations: toggle between the two zone
	// layouts, forcing moveChunkLocked traffic, plus balancer passes.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 6; round++ {
			layout := layoutA
			if round%2 == 1 {
				layout = layoutB
			}
			if err := c.SetZones(layout); err != nil {
				t.Errorf("SetZones round %d: %v", round, err)
				return
			}
			c.Balance()
		}
	}()
	wg.Wait()
	<-done

	if c.ClusterStats().Migrations == 0 {
		t.Fatal("stress ran without a single chunk migration")
	}
	// After the dust settles every query still matches the baseline.
	c.SetParallel(1)
	for i, f := range fs {
		if got := idSetOf(c.Query(f)); !reflect.DeepEqual(got, baseline[i]) {
			t.Fatalf("post-stress query %d diverged from baseline", i)
		}
	}
}

// TestSetParallelNormalizes: non-positive widths restore the
// GOMAXPROCS default rather than wedging the pool.
func TestSetParallelNormalizes(t *testing.T) {
	c := NewCluster(Options{Shards: 2})
	if got := c.Options().Parallel; got < 1 {
		t.Fatalf("default Parallel = %d", got)
	}
	c.SetParallel(-3)
	if got := c.Options().Parallel; got < 1 {
		t.Fatalf("SetParallel(-3) left Parallel = %d", got)
	}
	c.SetParallel(1)
	if got := c.Options().Parallel; got != 1 {
		t.Fatalf("SetParallel(1) left Parallel = %d", got)
	}
}
