package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/sharding"
)

func pushdownQuery() STQuery {
	return STQuery{
		Rect: testExtent,
		From: testStart,
		To:   testStart.Add(3000 * time.Minute),
	}
}

// mustBePrefix asserts got is byte-for-byte the first len(got)
// documents of want, and that got is min(limit, len(want)) long.
func mustBePrefix(t *testing.T, label string, got, want []bson.Raw, limit int) {
	t.Helper()
	wantLen := len(want)
	if limit > 0 && limit < wantLen {
		wantLen = limit
	}
	if len(got) != wantLen {
		t.Fatalf("%s: %d docs, want %d", label, len(got), wantLen)
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: doc %d differs from unlimited prefix", label, i)
		}
	}
}

// TestStoreLimitPrefixAcrossWidths: the routed, merged, limited result
// must be byte-identical to a prefix of the unlimited result, under
// both the sequential router and the parallel pool — the merge is
// deterministic regardless of shard completion order.
func TestStoreLimitPrefixAcrossWidths(t *testing.T) {
	for _, a := range []Approach{Hil, BslST} {
		s := openStore(t, a, 6)
		if err := s.Load(testRecords(3000)); err != nil {
			t.Fatal(err)
		}
		q := pushdownQuery()
		for _, width := range []int{1, 4} {
			s.SetParallel(width)
			full := s.Query(q)
			if full.Stats.NReturned < 20 {
				t.Fatalf("%s: query matches only %d docs; test needs more", a, full.Stats.NReturned)
			}
			for _, limit := range []int{1, 10, full.Stats.NReturned + 5} {
				lq := q
				lq.Limit = limit
				res := s.Query(lq)
				mustBePrefix(t, a.String(), res.Docs, full.Docs, limit)
				if res.Stats.NReturned != len(res.Docs) {
					t.Fatalf("%s: NReturned=%d but %d docs", a, res.Stats.NReturned, len(res.Docs))
				}
			}
		}
	}
}

// sortedByDate checks ascending/descending date order.
func sortedByDate(t *testing.T, docs []bson.Raw, desc bool) {
	t.Helper()
	for i := 1; i < len(docs); i++ {
		a, _ := docs[i-1].Lookup("date")
		b, _ := docs[i].Lookup("date")
		c := bson.Compare(bson.Normalize(a), bson.Normalize(b))
		if desc {
			c = -c
		}
		if c > 0 {
			t.Fatalf("doc %d out of date order (desc=%v)", i, desc)
		}
	}
}

// TestStoreTopKMatchesSortedPrefix: a limited sorted query must equal
// the prefix of the unlimited sorted query, across pool widths, and
// the unlimited sorted result must hold exactly the natural result's
// documents in date order.
func TestStoreTopKMatchesSortedPrefix(t *testing.T) {
	s := openStore(t, Hil, 6)
	if err := s.Load(testRecords(3000)); err != nil {
		t.Fatal(err)
	}
	q := pushdownQuery()
	natural := s.Query(q)
	for _, sort := range []SortOrder{SortDateAsc, SortDateDesc} {
		sq := q
		sq.Sort = sort
		fullSorted := s.Query(sq)
		if len(fullSorted.Docs) != len(natural.Docs) {
			t.Fatalf("sorted query returned %d docs, natural %d",
				len(fullSorted.Docs), len(natural.Docs))
		}
		sortedByDate(t, fullSorted.Docs, sort == SortDateDesc)
		for _, width := range []int{1, 4} {
			s.SetParallel(width)
			for _, limit := range []int{1, 25, len(fullSorted.Docs) + 5} {
				lq := sq
				lq.Limit = limit
				res := s.Query(lq)
				mustBePrefix(t, "sorted", res.Docs, fullSorted.Docs, limit)
			}
		}
		s.SetParallel(0)
	}
}

// TestStoreLimitUnderFaults: with a downed shard under allow-partial,
// the limited partial result must still be the prefix of the unlimited
// partial result (same fault).
func TestStoreLimitUnderFaults(t *testing.T) {
	s := openStore(t, Hil, 6)
	if err := s.Load(testRecords(3000)); err != nil {
		t.Fatal(err)
	}
	q := pushdownQuery()
	if n := s.Query(q).Stats.Nodes; n < 3 {
		t.Fatalf("query targets %d shards; need >=3", n)
	}

	fc := sharding.NewFaultConn(nil, 1)
	fc.SetFault(1, sharding.FaultSpec{Down: true})
	s.Cluster().SetConn(fc)
	s.Cluster().SetResilience(sharding.Resilience{Policy: sharding.AllowPartial})
	partialFull := s.Query(q)
	if !partialFull.Stats.Partial {
		t.Fatal("down shard not marked partial")
	}
	for _, limit := range []int{1, 10, partialFull.Stats.NReturned + 5} {
		lq := q
		lq.Limit = limit
		res := s.Query(lq)
		if !res.Stats.Partial {
			t.Fatalf("limit=%d: partiality lost", limit)
		}
		mustBePrefix(t, "faulted", res.Docs, partialFull.Docs, limit)
	}
}

// TestStoreBatchMatchesSingles: a batch of mixed limited/sorted
// queries must return exactly what the one-at-a-time executions
// return.
func TestStoreBatchMatchesSingles(t *testing.T) {
	s := openStore(t, Hil, 6)
	if err := s.Load(testRecords(3000)); err != nil {
		t.Fatal(err)
	}
	base := pushdownQuery()
	qs := []STQuery{base, base, base, base}
	qs[1].Limit = 5
	qs[2].Sort = SortDateDesc
	qs[3].Limit, qs[3].Sort = 7, SortDateAsc
	batch := s.QueryBatch(qs)
	for i, q := range qs {
		single := s.Query(q)
		if len(batch[i].Docs) != len(single.Docs) {
			t.Fatalf("batch[%d]: %d docs, single %d", i, len(batch[i].Docs), len(single.Docs))
		}
		for j := range single.Docs {
			if !bytes.Equal(batch[i].Docs[j], single.Docs[j]) {
				t.Fatalf("batch[%d]: doc %d differs from single execution", i, j)
			}
		}
	}
}

// TestQueryStatsPlanCacheCounters: core.QueryStats must surface the
// cluster-wide plan-cache counters from every read entry point, and
// repeated identical queries must turn into pure hits.
func TestQueryStatsPlanCacheCounters(t *testing.T) {
	s := openStore(t, Hil, 4)
	if err := s.Load(testRecords(1500)); err != nil {
		t.Fatal(err)
	}
	q := pushdownQuery()
	r := q.Rect
	poly, err := geo.NewPolygon(r.Min, geo.Point{Lon: r.Max.Lon, Lat: r.Min.Lat}, r.Max, geo.Point{Lon: r.Min.Lon, Lat: r.Max.Lat})
	if err != nil {
		t.Fatal(err)
	}
	pq := STPolygonQuery{Polygon: poly, From: q.From, To: q.To}
	for _, entry := range []struct {
		name string
		run  func() *QueryResult
	}{
		{"Query", func() *QueryResult { return s.Query(q) }},
		{"QueryPolygon", func() *QueryResult { return s.QueryPolygon(pq) }},
	} {
		name, run := entry.name, entry.run
		first := run()
		if first.Stats.PlanCacheMisses == 0 {
			t.Fatalf("%s: cold query reports zero plan-cache misses", name)
		}
		second := run()
		if second.Stats.PlanCacheHits < first.Stats.PlanCacheHits+int64(second.Stats.Nodes) {
			t.Fatalf("%s: warm query gained %d hits over %d nodes", name,
				second.Stats.PlanCacheHits-first.Stats.PlanCacheHits, second.Stats.Nodes)
		}
		if second.Stats.PlanCacheMisses != first.Stats.PlanCacheMisses {
			t.Fatalf("%s: warm query added misses: %d -> %d", name,
				first.Stats.PlanCacheMisses, second.Stats.PlanCacheMisses)
		}
	}
}
