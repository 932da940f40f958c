package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/query"
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
// a limited query walks its shards in turn, so its answer is partial
// exactly when the walk asked the downed shard — which the healthy
// cluster's walk shows, since the shards before it answer alike. A
// partial answer is the prefix of the unlimited partial answer (same
// fault); a complete one equals the healthy cluster's. The downed
// shard is once the first the walk asks, once the last.
func TestStoreLimitUnderFaults(t *testing.T) {
	s := openStore(t, Hil, 6)
	if err := s.Load(testRecords(3000)); err != nil {
		t.Fatal(err)
	}
	q := pushdownQuery()
	f, _, _ := s.Filter(q)
	targets, _, _ := s.Cluster().Route(f)
	if len(targets) < 3 {
		t.Fatalf("query targets %d shards; need >=3", len(targets))
	}
	limits := []int{1, 10, s.Query(q).Stats.NReturned + 5}
	healthy := map[int]*QueryResult{}
	for _, limit := range limits {
		lq := q
		lq.Limit = limit
		healthy[limit] = s.Query(lq)
	}
	for pos, down := range map[int]int{0: targets[0], len(targets) - 1: targets[len(targets)-1]} {
		fc := sharding.NewFaultConn(nil, 1)
		fc.SetFault(down, sharding.FaultSpec{Down: true})
		s.Cluster().SetConn(fc)
		s.Cluster().SetResilience(sharding.Resilience{Policy: sharding.AllowPartial})
		partialFull := s.Query(q)
		if !partialFull.Stats.Partial {
			t.Fatal("down shard not marked partial")
		}
		for _, limit := range limits {
			lq := q
			lq.Limit = limit
			res := s.Query(lq)
			asked := healthy[limit].Stats.IndexesUsed[pos] != ""
			if res.Stats.Partial != asked {
				t.Fatalf("down shard %d, limit=%d: partial=%v, but the walk asked it: %v", down, limit, res.Stats.Partial, asked)
			}
			if asked {
				mustBePrefix(t, "faulted", res.Docs, partialFull.Docs, limit)
			} else {
				mustBePrefix(t, "complete", res.Docs, healthy[limit].Docs, 0)
			}
		}
		// The first shard is asked by every walk; the last only by a
		// limit the shards before it cannot fill.
		if first := pos == 0; s.Query(STQuery{Rect: q.Rect, From: q.From, To: q.To, Limit: 1}).Stats.Partial != first {
			t.Fatalf("down shard %d at walk position %d: limit=1 partial=%v", down, pos, !first)
		}
	}
}

// TestLimitedWalkFetchesLess: on a 12-shard hil store, against what a
// scatter that asks every targeted shard in full would do — each shard's
// own limited execution, refining every document — a limited query's
// walk asks fewer shards, fetches fewer documents and refines fewer,
// natural order and top-k alike; a plain query fetches exactly as many
// documents and refines fewer, since documents in interior cells skip
// the refine.
func TestLimitedWalkFetchesLess(t *testing.T) {
	s := openStore(t, Hil, 12)
	if err := s.Load(testRecords(12000)); err != nil {
		t.Fatal(err)
	}
	type counts struct{ asked, fetched, refined int }
	for _, tc := range []struct {
		name  string
		limit int
		sort  SortOrder
	}{{"plain", 0, SortNone}, {"limit", 25, SortNone}, {"top-k", 25, SortDateDesc}} {
		var walk, scatter counts
		for i := 0; i < 8; i++ {
			lon, lat := 23.1+0.2*float64(i), 37.2+0.15*float64(i)
			q := STQuery{Rect: geo.NewRect(lon, lat, lon+0.6, lat+0.6), From: testStart.Add(time.Duration(i) * 24 * time.Hour),
				To: testStart.Add(time.Duration(i+4) * 24 * time.Hour), Limit: tc.limit, Sort: tc.sort}
			p, err := s.plan(q)
			if err != nil {
				t.Fatal(err)
			}
			res := s.Cluster().QueryOpts(p.f, p.opts)
			for k, st := range res.PerShard {
				if st.IndexUsed != "" {
					walk.asked++
				}
				walk.fetched += st.DocsExamined
				walk.refined += st.DocsRefined
				full := query.ExecuteOpts(s.Cluster().Shards()[res.TargetedShards[k]].Coll, p.f, nil, p.opts)
				scatter.asked++
				scatter.fetched += full.Stats.DocsExamined
				scatter.refined += full.Stats.DocsRefined
			}
		}
		t.Logf("%s: walk %+v, every shard in full %+v", tc.name, walk, scatter)
		if walk.refined >= scatter.refined || walk.refined == 0 {
			t.Errorf("%s: the walk refined %d documents, every shard in full %d", tc.name, walk.refined, scatter.refined)
		}
		if tc.limit == 0 {
			if walk.fetched != scatter.fetched || walk.asked != scatter.asked {
				t.Errorf("%s: fetched %d documents from %d shards, every shard in full %d from %d",
					tc.name, walk.fetched, walk.asked, scatter.fetched, scatter.asked)
			}
			continue
		}
		if walk.fetched >= scatter.fetched || tc.sort == SortNone && walk.asked >= scatter.asked {
			t.Errorf("%s: the walk fetched %d documents from %d shards, every shard in full %d from %d",
				tc.name, walk.fetched, walk.asked, scatter.fetched, scatter.asked)
		}
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
// repeated identical queries must turn into pure hits. BslST's shards
// have two indexes to choose between; a Hilbert shard has one plan and
// no plan cache to count.
func TestQueryStatsPlanCacheCounters(t *testing.T) {
	s := openStore(t, BslST, 4)
	if err := s.Load(testRecords(1500)); err != nil {
		t.Fatal(err)
	}
	q := pushdownQuery()
	for _, entry := range []struct {
		name string
		run  func() *QueryResult
	}{
		{"Query", func() *QueryResult { return s.Query(q) }},
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
	h := openStore(t, Hil, 4)
	if err := h.Load(testRecords(1500)); err != nil {
		t.Fatal(err)
	}
	h.Query(q)
	if st := h.Query(q).Stats; st.Nodes == 0 || st.PlanCacheHits != 0 || st.PlanCacheMisses != 0 {
		t.Fatalf("hil over %d nodes: %d plan-cache hits, %d misses, want none", st.Nodes, st.PlanCacheHits, st.PlanCacheMisses)
	}
}
