package query

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/keyenc"
)

// TestRankingRandomized pins the ranking a scan-order stream is
// offered to (pruned back to the limit at twice the limit) against a
// plain sort-and-truncate over random duplicate-heavy values, both
// directions — the property the executor-level differential tests rely
// on, checked in isolation.
func TestRankingRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(60)
		limit := rng.Intn(16) // 0 = keep everything
		desc := rng.Intn(2) == 1
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(30)) // many ties
		}
		var r ranking
		r.reset(limit, desc, nil)
		for _, v := range vals {
			r.offer(nil, keyenc.AppendValue(nil, v))
		}
		live := r.finish()
		want := append([]int64{}, vals...)
		slices.SortStableFunc(want, func(a, b int64) int {
			if desc {
				a, b = b, a
			}
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			}
			return 0
		})
		if limit > 0 && len(want) > limit {
			want = want[:limit]
		}
		if len(live) != len(want) {
			t.Fatalf("trial %d: kept %d items, want %d", trial, len(live), len(want))
		}
		for i := range want {
			if !bytes.Equal(live[i].key, keyenc.AppendValue(nil, want[i])) {
				t.Fatalf("trial %d (n=%d limit=%d desc=%v): item %d out of order",
					trial, n, limit, desc, i)
			}
		}
	}
}

// TestSortCandsRandomized pins the key-first fetch order against a
// stable sort of the candidates by key, both directions, over keys that
// tie, share long prefixes, differ only past their eighth byte, or are
// shorter than eight bytes, or are the extremes, and over counts that
// leave the packed words room for the whole head or not; a third of the
// trials add their keys already in order, which takes the run-by-run
// path.
func TestSortCandsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	prefixes := []string{"", "p", "prefix-longer-than-eight-"}
	var kf keyFirst
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(1 << (1 + rng.Intn(11)))
		desc := rng.Intn(2) == 1
		kf.reset()
		var keys [][]byte
		for i := 0; i < n; i++ {
			var k []byte
			switch rng.Intn(5) {
			case 4:
				// The extremes fill the first and last buckets.
				k = keyenc.AppendValue(nil, []any{bson.MinKey, bson.MaxKey}[rng.Intn(2)])
			case 0:
				k = keyenc.AppendValue(nil, baseTime.Add(time.Duration(rng.Intn(2000))*time.Millisecond))
			case 1:
				k = keyenc.AppendValue(nil, prefixes[rng.Intn(3)]+string(rune('a'+rng.Intn(4))))
			case 2:
				k = keyenc.AppendValue(nil, int64(rng.Intn(5)))
			default:
				k = keyenc.AppendValue(nil, nil)
			}
			keys = append(keys, k)
		}
		inOrder := rng.Intn(3) == 0
		if inOrder {
			slices.SortStableFunc(keys, bytes.Compare)
		}
		for _, k := range keys {
			kf.add(0, k, false)
		}
		if inOrder && !kf.inOrder {
			t.Fatalf("trial %d: keys added in order not noted as in order", trial)
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		slices.SortStableFunc(want, func(a, b int) int {
			if desc {
				return bytes.Compare(keys[b], keys[a])
			}
			return bytes.Compare(keys[a], keys[b])
		})
		kf.order(desc)
		for i := range want {
			if got, ok := kf.next(); !ok || got != want[i] {
				t.Fatalf("trial %d (n=%d desc=%v): position %d holds candidate %d (%v), want %d",
					trial, n, desc, i, got, ok, want[i])
			}
		}
		if got, ok := kf.next(); ok {
			t.Fatalf("trial %d: candidate %d handed out past the end", trial, got)
		}
	}
}

func pushdownQueries() []Filter {
	return []Filter{
		NewAnd(
			GeoWithin{Field: "location", Rect: geo.NewRect(23.6, 37.8, 23.9, 38.1)},
			TimeRangeFilter("date", baseTime, baseTime.Add(15*24*time.Hour)),
		),
		NewAnd(
			Cmp{Field: "hilbertIndex", Op: OpGTE, Value: int64(10000)},
			Cmp{Field: "hilbertIndex", Op: OpLTE, Value: int64(60000)},
			TimeRangeFilter("date", baseTime, baseTime.Add(20*24*time.Hour)),
		),
		TimeRangeFilter("date", baseTime.Add(24*time.Hour), baseTime.Add(6*24*time.Hour)),
	}
}

// TestLimitIsPrefixOfFullScan: a natural-order limited execution must
// return byte-for-byte the first Limit documents of the unlimited
// execution — the invariant that makes the early-exit pushdown
// transparent to every caller.
func TestLimitIsPrefixOfFullScan(t *testing.T) {
	c := newCollWithIndexes(t, 3000)
	for qi, f := range pushdownQueries() {
		full := Execute(c, f, nil)
		for _, limit := range []int{0, 1, 3, 10, full.Stats.NReturned, full.Stats.NReturned + 50} {
			res := ExecuteOpts(c, f, nil, Opts{Limit: limit})
			want := full.Docs
			if limit > 0 && limit < len(want) {
				want = want[:limit]
			}
			if len(res.Docs) != len(want) {
				t.Fatalf("q%d limit=%d: %d docs, want %d", qi, limit, len(res.Docs), len(want))
			}
			for i := range want {
				if !bytes.Equal(res.Docs[i], want[i]) {
					t.Fatalf("q%d limit=%d: doc %d differs from full-scan prefix", qi, limit, i)
				}
			}
		}
	}
}

// stableSortByDate is the reference top-k: stable-sort the full
// natural-order result by the date field, then truncate.
func stableSortByDate(t *testing.T, docs []bson.Raw, desc bool) []bson.Raw {
	t.Helper()
	out := append([]bson.Raw{}, docs...)
	// Insertion sort: stable, and the test sets are small.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, okA := out[j-1].Lookup("date")
			b, okB := out[j].Lookup("date")
			if !okA || !okB {
				t.Fatal("document without date field")
			}
			cmp := bson.Compare(bson.Normalize(a), bson.Normalize(b))
			if desc {
				cmp = -cmp
			}
			if cmp <= 0 {
				break
			}
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// TestTopKMatchesSortThenTruncate: an ordered (and limited) execution
// must be byte-identical to stable-sorting the unlimited natural
// result by the order-by field and truncating — the invariant that
// makes key-first top-k transparent.
func TestTopKMatchesSortThenTruncate(t *testing.T) {
	c := newCollWithIndexes(t, 2000)
	for qi, f := range pushdownQueries() {
		full := Execute(c, f, nil)
		for _, desc := range []bool{false, true} {
			sorted := stableSortByDate(t, full.Docs, desc)
			for _, limit := range []int{0, 1, 7, 50, len(sorted) + 10} {
				res := ExecuteOpts(c, f, nil, Opts{Limit: limit, OrderBy: "date", Desc: desc})
				want := sorted
				if limit > 0 && limit < len(want) {
					want = want[:limit]
				}
				if len(res.Docs) != len(want) {
					t.Fatalf("q%d desc=%v limit=%d: %d docs, want %d",
						qi, desc, limit, len(res.Docs), len(want))
				}
				for i := range want {
					if !bytes.Equal(res.Docs[i], want[i]) {
						t.Fatalf("q%d desc=%v limit=%d: doc %d differs from sort-then-truncate",
							qi, desc, limit, i)
					}
				}
				if len(res.Keys) != len(res.Docs) {
					t.Fatalf("q%d desc=%v limit=%d: %d keys for %d docs",
						qi, desc, limit, len(res.Keys), len(res.Docs))
				}
			}
		}
	}
}

// TestLimitKeepsPlanCached: hitting the limit is a *completed*
// execution, not a budget overrun — it must not evict the cached plan
// the way a replan does.
func TestLimitKeepsPlanCached(t *testing.T) {
	c := newCollWithIndexes(t, 2000)
	f := pushdownQueries()[1]
	Execute(c, f, nil) // cold: plans, trials, remembers
	missesBefore := c.PlanCacheMisses.Load()
	hitsBefore := c.PlanCacheHits.Load()
	for i := 0; i < 5; i++ {
		ExecuteOpts(c, f, nil, Opts{Limit: 2})
	}
	if got := c.PlanCacheMisses.Load(); got != missesBefore {
		t.Fatalf("limited reruns missed the plan cache: misses %d -> %d", missesBefore, got)
	}
	if got := c.PlanCacheHits.Load(); got != hitsBefore+5 {
		t.Fatalf("plan-cache hits = %d, want %d", got, hitsBefore+5)
	}
}

// TestExplainReportsCacheCounters: the explain output must surface the
// collection's cumulative hit/miss counters.
func TestExplainReportsCacheCounters(t *testing.T) {
	c := newCollWithIndexes(t, 500)
	f := pushdownQueries()[0]
	ex1 := Explain(c, f, nil)
	if ex1.CacheHit {
		t.Fatal("first execution reported a plan-cache hit")
	}
	if ex1.CacheMisses < 1 {
		t.Fatalf("first explain reports %d misses, want >=1", ex1.CacheMisses)
	}
	ex2 := Explain(c, f, nil)
	if !ex2.CacheHit {
		t.Fatal("second execution missed the plan cache")
	}
	if ex2.CacheHits < 1 {
		t.Fatalf("second explain reports %d hits, want >=1", ex2.CacheHits)
	}
	if ex2.CacheMisses < ex1.CacheMisses {
		t.Fatalf("cumulative misses went backwards: %d -> %d", ex1.CacheMisses, ex2.CacheMisses)
	}
}

// scanSizedFilter is one warm query shape whose scan size is set by
// the width of its hilbertIndex range: the date window spans all the
// data, so every scanned document is examined and returned.
func scanSizedFilter(hiCell int64) Filter {
	return NewAnd(
		Cmp{Field: "hilbertIndex", Op: OpGTE, Value: int64(10000)},
		Cmp{Field: "hilbertIndex", Op: OpLT, Value: hiCell},
		TimeRangeFilter("date", baseTime, baseTime.Add(31*24*time.Hour)),
	)
}

// TestWarmPathAllocsIndependentOfScanSize guards "O(result), never
// O(scanned)": the same warm query shape run over ~100 and over ~1000
// examined documents must allocate the same number of objects — the
// result slice grows, nothing is allocated per document — for a full
// result, a top-k and every aggregate kind. (The guard this replaces
// scanned 10 rows under a 120-object budget, loose enough to pass
// with a dozen allocations per examined document.)
func TestWarmPathAllocsIndependentOfScanSize(t *testing.T) {
	c := newCollWithIndexes(t, 4000)
	small, large := scanSizedFilter(13000), scanSizedFilter(36000)
	if n := Execute(c, small, nil).Stats.DocsExamined; n < 50 || n > 200 {
		t.Fatalf("small scan examines %d documents, want about 100", n)
	}
	if n := Execute(c, large, nil).Stats.DocsExamined; n < 700 || n > 1500 {
		t.Fatalf("large scan examines %d documents, want about 1000", n)
	}
	for _, tc := range []struct {
		name string
		opts Opts
	}{
		{"full", Opts{}},
		{"top-k", Opts{Limit: 10, OrderBy: "date", Desc: true}},
		{"count", Opts{Agg: AggSpec{Kind: AggCount}}},
		// Both scans meet every vehicle, so the distinct sets — which
		// are result, and do allocate per value — are the same size.
		{"distinct", Opts{Agg: AggSpec{Kind: AggDistinct, Field: "vehicle"}}},
		{"cell-hist", Opts{Agg: AggSpec{Kind: AggCellHist, Field: "hilbertIndex", Shift: 20}}},
	} {
		measure := func(f Filter) float64 {
			// Warm the plan cache and grow the pooled scratch to size.
			for i := 0; i < 3; i++ {
				ExecuteOpts(c, f, nil, tc.opts)
			}
			return testing.AllocsPerRun(50, func() { ExecuteOpts(c, f, nil, tc.opts) })
		}
		// Large first: the scratch pool is shared, and the small scan
		// then runs in buffers that are already big enough.
		atLarge, atSmall := measure(large), measure(small)
		t.Logf("%s: %.0f allocs at ~1000 examined, %.0f at ~100", tc.name, atLarge, atSmall)
		// One allocation per extra examined document would be ~900
		// apart; the slack absorbs the pool losing a scratch to a GC
		// (or to the race detector, which drops pooled items on purpose).
		if diff := atLarge - atSmall; diff > 16 || diff < -16 {
			t.Errorf("%s: %.0f allocs over ~1000 examined documents, %.0f over ~100: the warm path allocates per document",
				tc.name, atLarge, atSmall)
		}
	}
}
