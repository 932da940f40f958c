package query

import (
	"sync"
	"testing"
	"time"
)

// TestConcurrentExecuteSameShape hammers one collection with
// concurrent executions of one query shape under varying constants —
// the exact load the parallel router's QueryBatch puts on a shard.
// The plan cache (a sync.Map of comparable entries) must stay
// race-free and every execution must return the sequentially-computed
// answer. Run under -race.
func TestConcurrentExecuteSameShape(t *testing.T) {
	c := newCollWithIndexes(t, 2000)
	mkFilter := func(lo, hi int64) Filter {
		return NewAnd(
			Cmp{Field: "hilbertIndex", Op: OpGTE, Value: lo},
			Cmp{Field: "hilbertIndex", Op: OpLTE, Value: hi},
			TimeRangeFilter("date", baseTime, baseTime.Add(20*24*time.Hour)),
		)
	}
	type variant struct {
		lo, hi int64
		want   int
	}
	variants := make([]variant, 8)
	for i := range variants {
		lo := int64(i * 10000)
		hi := lo + 15000
		variants[i] = variant{lo, hi, referenceCount(t, c, mkFilter(lo, hi))}
	}
	const goroutines = 8
	const iters = 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				v := variants[(g+i)%len(variants)]
				res := Execute(c, mkFilter(v.lo, v.hi), nil)
				if res.Stats.NReturned != v.want {
					t.Errorf("goroutine %d iter %d: got %d docs, want %d", g, i, res.Stats.NReturned, v.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentReplanEviction forces the replanning path from many
// goroutines at once: a tiny TrialWorks makes the cached budget so
// small that wide-constant executions blow it and evict + replan. The
// conditional (CompareAndDelete) eviction must never throw away a
// winner a racing execution just remembered, and every execution must
// still return the right answer. Run under -race.
func TestConcurrentReplanEviction(t *testing.T) {
	c := newCollWithIndexes(t, 1500)
	cfg := &Config{TrialWorks: 4}
	narrow := NewAnd(
		Cmp{Field: "hilbertIndex", Op: OpGTE, Value: int64(0)},
		Cmp{Field: "hilbertIndex", Op: OpLTE, Value: int64(100)},
		TimeRangeFilter("date", baseTime, baseTime.Add(24*time.Hour)),
	)
	wide := NewAnd(
		Cmp{Field: "hilbertIndex", Op: OpGTE, Value: int64(0)},
		Cmp{Field: "hilbertIndex", Op: OpLTE, Value: int64(1 << 40)},
		TimeRangeFilter("date", baseTime, baseTime.Add(40*24*time.Hour)),
	)
	wantNarrow := referenceCount(t, c, narrow)
	wantWide := referenceCount(t, c, wide)
	const goroutines = 8
	const iters = 30
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Alternate narrow/wide so the cached works budget
				// keeps flip-flopping and evictions race.
				f, want := narrow, wantNarrow
				if (g+i)%2 == 0 {
					f, want = wide, wantWide
				}
				res := Execute(c, f, cfg)
				if res.Stats.NReturned != want {
					t.Errorf("goroutine %d iter %d: got %d docs, want %d", g, i, res.Stats.NReturned, want)
					return
				}
				if i%5 == 2 {
					// Explains share the same cache paths.
					ex := Explain(c, f, cfg)
					if ex.Execution.NReturned != want {
						t.Errorf("goroutine %d iter %d: explain returned %d docs, want %d", g, i, ex.Execution.NReturned, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// The cache must end holding a usable winner for the shape (both
	// filters share it), not a hole left by a misfired eviction racing
	// a fresh rememberPlan.
	if _, ok := c.PlanCache.Load(ShapeOf(narrow)); !ok {
		t.Fatal("plan cache empty after replanning storm")
	}
}

// TestEvictPlanIsConditional pins the CompareAndDelete semantics: an
// eviction carrying a stale entry must not remove the fresh winner
// that replaced it.
func TestEvictPlanIsConditional(t *testing.T) {
	c := newCollWithIndexes(t, 200)
	f := Prepare(NewAnd(
		Cmp{Field: "hilbertIndex", Op: OpGTE, Value: int64(0)},
		Cmp{Field: "hilbertIndex", Op: OpLTE, Value: int64(1000)},
	))
	Execute(c, f, nil)
	plan, _, stale, ok := cachedPlan(c, f)
	if !ok {
		t.Fatal("no cached plan after execution")
	}
	// A racing execution re-remembers the winner with different works.
	rememberPlan(c, f, plan, stale.works+999)
	// The stale eviction must now be a no-op.
	evictPlan(c, f, stale)
	if _, _, fresh, ok := cachedPlan(c, f); !ok {
		t.Fatal("stale eviction removed the fresh entry")
	} else if fresh.works != stale.works+999 {
		t.Fatalf("cache holds works=%d, want the fresh %d", fresh.works, stale.works+999)
	}
	// With the matching entry the eviction does fire.
	_, _, cur, _ := cachedPlan(c, f)
	evictPlan(c, f, cur)
	if _, ok := c.PlanCache.Load(ShapeOf(f)); ok {
		t.Fatal("matching eviction left the entry in place")
	}
}
