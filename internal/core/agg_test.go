package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/query"
)

// TestAggregateMatchesDocumentShipping: the pushed-down aggregate is
// byte-identical to aggregating the shipped documents of the same
// query, across approaches and aggregate kinds.
func TestAggregateMatchesDocumentShipping(t *testing.T) {
	for _, a := range []Approach{Hil, HilStar, BslST} {
		t.Run(a.String(), func(t *testing.T) {
			s := openStore(t, a, 4)
			defer s.Close()
			if err := s.Load(testRecords(2500)); err != nil {
				t.Fatal(err)
			}
			week := testStart.Add(7 * 24 * time.Hour)
			queries := []STQuery{
				{Rect: testExtent, From: testStart, To: week},
				{Rect: testExtent, From: testStart, To: testStart.Add(3 * time.Hour)},
			}
			for qi, base := range queries {
				shipped := s.Query(base)
				specs := []STQuery{
					{Count: true},
					{Distinct: "vehicleId"},
					{Distinct: "date"},
				}
				if s.Grid() != nil {
					specs = append(specs, STQuery{HeatmapBits: 5})
				}
				for _, spec := range specs {
					q := base
					q.Count, q.Distinct, q.HeatmapBits = spec.Count, spec.Distinct, spec.HeatmapBits
					res, err := s.Aggregate(q)
					if err != nil {
						t.Fatalf("query %d: %v", qi, err)
					}
					o, err := s.opts(q)
					if err != nil {
						t.Fatal(err)
					}
					want := query.AggregateDocs(shipped.Docs, o.Agg)
					if !want.Equal(res.Agg) {
						t.Fatalf("query %d spec %+v: pushdown %+v != shipped %+v", qi, spec, res.Agg, want)
					}
					if len(res.Docs) != 0 {
						t.Fatalf("query %d: aggregate shipped %d docs", qi, len(res.Docs))
					}
				}
			}
		})
	}
}

// TestAggregateValidation: invalid aggregate requests fail loudly.
func TestAggregateValidation(t *testing.T) {
	s := openStore(t, BslST, 2)
	defer s.Close()
	week := testStart.Add(24 * time.Hour)
	if _, err := s.Aggregate(STQuery{Rect: testExtent, From: testStart, To: week}); err == nil {
		t.Fatal("aggregate without a spec should fail")
	}
	if _, err := s.Aggregate(STQuery{Rect: testExtent, From: testStart, To: week, Count: true, Distinct: "date"}); err == nil {
		t.Fatal("two aggregate kinds should fail")
	}
	if _, err := s.Aggregate(STQuery{Rect: testExtent, From: testStart, To: week, HeatmapBits: 4}); err == nil {
		t.Fatal("heatmap on a baseline approach should fail")
	}
	h := openStore(t, Hil, 2)
	defer h.Close()
	if _, err := h.Aggregate(STQuery{Rect: testExtent, From: testStart, To: week, HeatmapBits: 99}); err == nil {
		t.Fatal("heatmap bits beyond the curve order should fail")
	}
}

// TestAggregateFieldNeverShipsDocuments: every core entry point routes
// a query with an aggregate field set down the aggregate path — the
// answer is the aggregate (identical to Aggregate's) or a refusal in
// Err, never a plain document result.
func TestAggregateFieldNeverShipsDocuments(t *testing.T) {
	s := openStore(t, Hil, 4)
	defer s.Close()
	if err := s.Load(testRecords(1500)); err != nil {
		t.Fatal(err)
	}
	week := testStart.Add(7 * 24 * time.Hour)
	base := STQuery{Rect: testExtent, From: testStart, To: week}
	if n := len(s.Query(base).Docs); n == 0 {
		t.Fatal("vacuous: the plain query matches nothing")
	}
	valid := []STQuery{base, base, base}
	valid[0].Count = true
	valid[1].Distinct = "vehicleId"
	valid[2].HeatmapBits = 5
	invalid := []STQuery{base, base}
	invalid[0].Count, invalid[0].Distinct = true, "date"
	invalid[1].HeatmapBits = 99

	check := func(entry string, q STQuery, res *QueryResult) {
		t.Helper()
		if len(res.Docs) != 0 {
			t.Fatalf("%s %+v: shipped %d documents", entry, q, len(res.Docs))
		}
		want, err := s.Aggregate(q)
		if err != nil {
			if res.Err == nil || res.Agg != nil {
				t.Fatalf("%s %+v: want refusal %q, got agg=%v err=%v", entry, q, err, res.Agg, res.Err)
			}
			return
		}
		if res.Err != nil || !want.Agg.Equal(res.Agg) {
			t.Fatalf("%s %+v: agg %+v err %v, want %+v", entry, q, res.Agg, res.Err, want.Agg)
		}
	}
	all := append(append([]STQuery{}, valid...), invalid...)
	for _, q := range all {
		check("Query", q, s.Query(q))
	}
	// A batch mixes them with a plain query, which still ships documents.
	batch := s.QueryBatch(append(all, base))
	for i, q := range all {
		check("QueryBatch", q, batch[i])
	}
	if last := batch[len(all)]; last.Err != nil || last.Agg != nil || len(last.Docs) == 0 {
		t.Fatalf("QueryBatch: plain entry came back agg=%v err=%v docs=%d", last.Agg, last.Err, len(last.Docs))
	}
}

// TestCachedAggregatesUnderIngest is the staleness acceptance test:
// a store with the result cache enabled runs the same query mix as a
// cache-free oracle store while ingest batches (forcing chunk
// splits) and range deletes interleave. Every answer — cache hit or
// miss — must be byte-identical to the oracle's cold execution, and
// the run must actually produce hits.
func TestCachedAggregatesUnderIngest(t *testing.T) {
	open := func(cacheBytes int64) *Store {
		s, err := Open(Config{
			Approach:         Hil,
			Shards:           4,
			ChunkMaxBytes:    8 << 10,
			AutoBalanceEvery: 256,
			ResultCacheBytes: cacheBytes,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cached := open(32 << 20)
	defer cached.Close()
	oracle := open(0)
	defer oracle.Close()

	all := testRecords(4000)
	week := testStart.Add(7 * 24 * time.Hour)
	queries := []STQuery{
		{Rect: testExtent, From: testStart, To: week},
		{Rect: testExtent, From: testStart, To: week, Count: true},
		{Rect: testExtent, From: testStart, To: week, Distinct: "vehicleId"},
		{Rect: testExtent, From: testStart, To: week, HeatmapBits: 6},
		{Rect: testExtent, From: testStart.Add(time.Hour), To: testStart.Add(9 * time.Hour), Count: true},
	}
	check := func(round int) {
		t.Helper()
		// Twice: the first execution fills the cache, the second must
		// hit it — and both must equal the oracle.
		for pass := 0; pass < 2; pass++ {
			for qi, q := range queries {
				var got, want *QueryResult
				var err error
				if q.HasAgg() {
					if got, err = cached.Aggregate(q); err != nil {
						t.Fatal(err)
					}
					if want, err = oracle.Aggregate(q); err != nil {
						t.Fatal(err)
					}
					if !want.Agg.Equal(got.Agg) {
						t.Fatalf("round %d pass %d query %d: cached agg %+v != oracle %+v (hit=%v)",
							round, pass, qi, got.Agg, want.Agg, got.Stats.CacheHit)
					}
				} else {
					got, want = cached.Query(q), oracle.Query(q)
					if len(got.Docs) != len(want.Docs) {
						t.Fatalf("round %d pass %d query %d: %d docs != %d (hit=%v)",
							round, pass, qi, len(got.Docs), len(want.Docs), got.Stats.CacheHit)
					}
					for i := range want.Docs {
						if !bytes.Equal(got.Docs[i], want.Docs[i]) {
							t.Fatalf("round %d pass %d query %d: doc %d differs (hit=%v)",
								round, pass, qi, i, got.Stats.CacheHit)
						}
					}
				}
			}
		}
	}

	const batch = 500
	for round := 0; round*batch < len(all); round++ {
		recs := all[round*batch : (round+1)*batch]
		id := fmt.Sprintf("agg-cache-%d", round)
		if _, _, err := cached.InsertRecords(context.Background(), id, recs); err != nil {
			t.Fatal(err)
		}
		if _, _, err := oracle.InsertRecords(context.Background(), id, recs); err != nil {
			t.Fatal(err)
		}
		check(round)
		if round%3 == 2 {
			del := STQuery{
				Rect: testExtent,
				From: testStart.Add(time.Duration(round) * 30 * time.Minute),
				To:   testStart.Add(time.Duration(round)*30*time.Minute + 45*time.Minute),
			}
			n1, err := cached.Delete(del)
			if err != nil {
				t.Fatal(err)
			}
			n2, err := oracle.Delete(del)
			if err != nil {
				t.Fatal(err)
			}
			if n1 != n2 {
				t.Fatalf("round %d: deleted %d on cached store, %d on oracle", round, n1, n2)
			}
			check(round)
		}
	}
	hits, misses := cached.Cluster().ResultCacheStats()
	if hits == 0 {
		t.Fatalf("run produced no cache hits (misses=%d)", misses)
	}
	t.Logf("result cache: %d hits, %d misses", hits, misses)
}
