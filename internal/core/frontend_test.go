package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/btree"
	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/sfc"
	"repro/internal/sharding"
	"repro/internal/wire"
)

// TestFrontEndAllocsIndependentOfCoverSize guards the per-query front
// end on the stage-budget hil store. Preparing a filter, routing it and
// probing the result cache must allocate the same whether its cover has
// 2, 12 or 60 ranges: the bounds, the tuple keys and the cache key each
// live in one buffer, and pruning reads the cover's ranges in place, so
// the three take at most 8 objects. And a warm cache hit of a Q^b-sized rectangle
// through Store.Query — cover, filter and the result included — stays
// under 150 allocations.
//
// The whole miss path — cover, filter, plan, route and execution — is
// held to the same: a warm document query through Store.Query on a
// one-shard store (so that every cover runs on one shard) allocates the
// same over the three covers. And a warm point query on the stage store
// without a result cache, the benchmark's point stream, allocates at
// most 30 objects; it took 61 when the cover was an $or and every
// shard consulted its plan cache.
func TestFrontEndAllocsIndependentOfCoverSize(t *testing.T) {
	s := openStageStore(t, Hil)
	one := openStageStoreWith(t, Hil, 1, 0)
	var allocs, misses []float64
	var hit STQuery
	for _, tc := range []struct {
		rect   geo.Rect
		lo, hi int // cover ranges
	}{
		{geo.NewRect(23.3, 37.3, 23.33, 37.32), 1, 4},
		{geo.NewRect(23.3, 37.3, 23.3+0.4267, 37.3+0.33), 10, 20},
		{geo.NewRect(23.6, 38.0, 25.2, 39.3), 45, 80},
	} {
		q := STQuery{Rect: tc.rect, From: testStart, To: testStart.Add(7 * 24 * time.Hour), Count: true}
		p, err := s.plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if n := p.cover.Ranges; n < tc.lo || n > tc.hi {
			t.Fatalf("%v covers in %d ranges, want %d..%d", tc.rect, n, tc.lo, tc.hi)
		}
		s.run(p) // fill the result cache
		n := testing.AllocsPerRun(200, func() {
			if !s.cluster.QueryOpts(p.f, p.opts).CacheHit {
				t.Fatal("warm query missed the result cache")
			}
		})
		t.Logf("%d ranges: %.1f allocations to prepare, route and probe", p.cover.Ranges, n)
		if n > 8 && !raceEnabled {
			t.Errorf("%d ranges: prepare, route and probe allocate %.0f objects, want at most 8", p.cover.Ranges, n)
		}
		allocs = append(allocs, n)
		if tc.lo == 10 {
			hit = q
		}
		// The documents of the whole data set's span: every query
		// returns some, and the two wider rectangles have interior
		// cells, which a document query and a count classify their keys
		// against without allocating.
		miss := STQuery{Rect: tc.rect, From: testStart, To: testStart.Add(15 * 24 * time.Hour)}
		if r := one.Query(miss); r.Stats.Nodes != 1 || r.Stats.NReturned == 0 {
			t.Fatalf("%v returned %d documents from %d shards of the one-shard store", tc.rect, r.Stats.NReturned, r.Stats.Nodes)
		}
		n = testing.AllocsPerRun(100, func() { one.Query(miss) })
		t.Logf("%d ranges: %.1f allocations for a warm miss through Store.Query", p.cover.Ranges, n)
		misses = append(misses, n)
		// Classifying keys allocates nothing, so a count miss allocates
		// no more than a document miss at any cover size, and a heatmap
		// miss at most two more, for the cells its answer carries.
		count, heat := miss, miss
		count.Count, heat.HeatmapBits = true, 6
		for _, agg := range []struct {
			q     STQuery
			extra float64
		}{{count, 0}, {heat, 2}} {
			a := testing.AllocsPerRun(100, func() { one.Query(agg.q) })
			t.Logf("%d ranges: %.1f allocations for a warm aggregate miss (count %v) through Store.Query", p.cover.Ranges, a, agg.q.Count)
			if a > n+agg.extra && !raceEnabled {
				t.Errorf("%d ranges: an aggregate miss (count %v) allocates %.1f objects, a document miss %.1f", p.cover.Ranges, agg.q.Count, a, n)
			}
		}
	}
	for i := range allocs[1:] {
		if d := allocs[i+1] - allocs[0]; d > 4 || d < -4 {
			t.Errorf("prepare, route and probe allocate %v over covers of 2, 12 and 60 ranges: not independent of the cover", allocs)
		}
		// A miss takes pooled scratch, which the race detector drops.
		if d := misses[i+1] - misses[0]; !raceEnabled && (d > 2 || d < -2) {
			t.Errorf("a warm miss allocates %v over covers of 2, 12 and 60 ranges: not independent of the cover", misses)
		}
	}
	n := testing.AllocsPerRun(200, func() { s.Query(hit) })
	t.Logf("warm Q^b-sized hit through Store.Query: %.1f allocations", n)
	if n > 150 {
		t.Errorf("a warm result-cache hit allocates %.0f objects, want at most 150", n)
	}

	stage := openStageStoreWith(t, Hil, 12, 0)
	point := pointQueries(testRecords(stageRecords), 1)[0]
	if r := stage.Query(point); r.Stats.NReturned == 0 {
		t.Fatal("the point query returns nothing")
	}
	n = testing.AllocsPerRun(200, func() { stage.Query(point) })
	t.Logf("warm point query through Store.Query: %.1f allocations", n)
	if n > 30 && !raceEnabled {
		t.Errorf("a warm point query allocates %.0f objects, want at most 30 (half of 61)", n)
	}
}

// refHilbertConstraint is the $or the Hilbert approaches' constraint
// stands for (Section 4.2.2), built node by node: a $gte/$lte pair per
// range of more than one cell, one $in of the single cells, and an
// impossible point pair for an empty cover. It is what HilbertConstraint
// built before the constraint became a query.KeyRanges.
func refHilbertConstraint(ranges []sfc.Range) query.Filter {
	var arms []query.Filter
	var singles []any
	for _, r := range ranges {
		if r.Lo == r.Hi {
			singles = append(singles, int64(r.Lo))
			continue
		}
		arms = append(arms, query.NewAnd(
			query.Cmp{Field: FieldHilbert, Op: query.OpGTE, Value: int64(r.Lo)},
			query.Cmp{Field: FieldHilbert, Op: query.OpLTE, Value: int64(r.Hi)},
		))
	}
	if len(singles) > 0 {
		arms = append(arms, query.In{Field: FieldHilbert, Values: singles})
	}
	if len(arms) == 0 {
		return query.NewAnd(
			query.Cmp{Field: FieldHilbert, Op: query.OpGT, Value: int64(0)},
			query.Cmp{Field: FieldHilbert, Op: query.OpLT, Value: int64(0)},
		)
	}
	return query.NewOr(arms...)
}

// keyRangesInput draws choices from the fuzzer's bytes, zeros once
// spent.
type keyRangesInput struct{ b []byte }

func (in *keyRangesInput) intn(n int) int {
	if len(in.b) == 0 {
		return 0
	}
	c := in.b[0]
	in.b = in.b[1:]
	return int(c) % n
}

func (in *keyRangesInput) unit() float64 { return float64(in.intn(256)<<8|in.intn(256)) / 65536 }

// probeValues are hilbertIndex values around the cover's ends, of every
// numeric kind and of others, for Matches to disagree on if it can.
func (in *keyRangesInput) probeValues(ranges []sfc.Range) []any {
	out := []any{math.NaN(), math.Inf(1), math.Inf(-1), "7", true, nil, bson.A{int64(1)}, -0.0}
	for i := 0; i < 6; i++ {
		v := int64(in.intn(1 << 8))
		if len(ranges) > 0 {
			r := ranges[in.intn(len(ranges))]
			v = [...]int64{int64(r.Lo) - 1, int64(r.Lo), int64(r.Hi), int64(r.Hi) + 1}[in.intn(4)]
		}
		out = append(out, v, int32(v), float64(v), float64(v)+0.5, float64(v)-0.5)
	}
	return out
}

// sameIntervals compares interval sets end for end: same types, same
// values (NaN included), same inclusivity.
func sameIntervals(a, b []query.ValueInterval) bool {
	same := func(x, y any) bool { return fmt.Sprintf("%T %#v", x, x) == fmt.Sprintf("%T %#v", y, y) }
	return slices.EqualFunc(a, b, func(x, y query.ValueInterval) bool {
		return same(x.Lo, y.Lo) && same(x.Hi, y.Hi) && x.LoIncl == y.LoIncl && x.HiIncl == y.HiIncl
	})
}

func sameSegments(a, b []query.Segment) bool {
	bound := func(x, y btree.Bound) bool {
		return x.Inclusive == y.Inclusive && x.Unbounded == y.Unbounded && bytes.Equal(x.Key, y.Key)
	}
	return slices.EqualFunc(a, b, func(x, y query.Segment) bool {
		return bound(x.Interval.Low, y.Interval.Low) && bound(x.Interval.High, y.Interval.High) &&
			bytes.Equal(x.SubLo, y.SubLo) && bytes.Equal(x.SubHiUpper, y.SubHiUpper)
	})
}

// sameRouted compares two routed results but for their durations.
func sameRouted(a, b *sharding.RoutedResult) bool {
	a, b = ptrCopy(a), ptrCopy(b)
	a.Duration, b.Duration = 0, 0
	for _, r := range []*sharding.RoutedResult{a, b} {
		r.PerShard = slices.Clone(r.PerShard)
		for i := range r.PerShard {
			r.PerShard[i].Duration = 0
		}
	}
	return reflect.DeepEqual(a, b)
}

func ptrCopy[T any](p *T) *T { c := *p; return &c }

// FuzzKeyRanges is the differential fuzz of the Hilbert approaches'
// query.KeyRanges constraint against the $or it stands for
// (refHilbertConstraint), on hil and hil* stores: covers of random
// rectangles, coalesced or not, and empty ones. Byte for byte, it
// checks Matches on documents, raw and decoded, whose hilbertIndex is
// missing or of any kind; the rendering and shape; the bounds; every
// shard's candidate plans, segments and residual; the wire round trip;
// and, but for the shards only a KeyRanges prunes, the route, the
// results and their counters, and Explain.
func FuzzKeyRanges(f *testing.F) {
	stores := []*Store{openStore(f, Hil, 3), openStore(f, HilStar, 3)}
	for _, s := range stores {
		if err := s.Load(testRecords(3000)); err != nil {
			f.Fatal(err)
		}
	}
	for _, seed := range [][]byte{
		{},
		{0, 0, 100, 100, 10, 10, 3},
		{1, 0, 120, 90, 200, 180, 40, 1, 5},
		{0, 2, 30, 200, 255, 255, 100, 0},
		{1, 1, 10, 10, 1, 1, 20},
		{0, 3, 50, 50, 5, 250, 60, 2, 1},
		[]byte("110000000"), // a two-range cover with a gap: the wire's deltas
		[]byte("00000001"),  // a coalesced cover routed over pruned shards
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &keyRangesInput{b: data}
		s := stores[in.intn(len(stores))]
		var rect geo.Rect
		switch in.intn(4) {
		case 0: // outside the data: an empty cover on hil*, none stored on hil
			rect = geo.NewRect(10, 10, 10+in.unit(), 10+in.unit())
		default:
			lon, lat := 22.8+2.4*in.unit(), 36.8+2.4*in.unit()
			rect = geo.NewRect(lon, lat, lon+in.unit()*in.unit(), lat+in.unit()*in.unit())
		}
		ranges := s.Grid().Cover(rect)
		coalesced := in.intn(3) == 0
		if coalesced {
			ranges = sfc.CoalesceRanges(ranges, 1+in.intn(8))
		}
		from := testStart.Add(time.Duration(in.intn(14*24)) * time.Hour)
		to := from.Add(time.Duration(1+in.intn(72)) * time.Hour)

		typed, ref := HilbertConstraint(ranges), refHilbertConstraint(ranges)
		if _, ok := typed.(query.KeyRanges); ok != (len(ranges) > 0) {
			t.Fatalf("%d ranges: constraint is a %T", len(ranges), typed)
		}
		if typed.String() != ref.String() || query.ShapeOf(typed) != query.ShapeOf(ref) {
			t.Fatalf("constraint renders\n %s (%s)\nwant %s (%s)", typed, query.ShapeOf(typed), ref, query.ShapeOf(ref))
		}
		for _, v := range in.probeValues(ranges) {
			d := bson.D{{Key: "other", Value: int64(1)}}
			if v != nil || in.intn(2) == 0 {
				d = append(d, bson.Elem{Key: FieldHilbert, Value: v})
			}
			doc := bson.FromD(d)
			for _, probe := range []bson.Doc{doc, bson.Raw(bson.Marshal(doc))} {
				if got, want := typed.Matches(probe), ref.Matches(probe); got != want {
					t.Fatalf("%v (%T) in %s: Matches %v, $or %v", v, v, ref, got, want)
				}
			}
		}

		ft := query.NewAnd(query.GeoWithin{Field: FieldLoc, Rect: rect}, query.TimeRangeFilter(FieldDate, from, to), typed)
		fr := query.NewAnd(query.GeoWithin{Field: FieldLoc, Rect: rect}, query.TimeRangeFilter(FieldDate, from, to), ref)
		if got, _, _ := s.Filter(STQuery{Rect: rect, From: from, To: to}); !coalesced && !reflect.DeepEqual(got, ft) {
			t.Fatalf("Store.Filter built %s, want %s", got, ft)
		}
		bt, br := query.BoundsOf(ft), query.BoundsOf(fr)
		if bt.Impossible() != br.Impossible() {
			t.Fatalf("impossible %v, $or %v", bt.Impossible(), br.Impossible())
		}
		for _, field := range []string{FieldHilbert, FieldDate, FieldLoc} {
			ti, tok := bt.Intervals(field)
			ri, rok := br.Intervals(field)
			tr, tg := bt.GeoRect(field)
			rr, rg := br.GeoRect(field)
			if tok != rok || !sameIntervals(ti, ri) || bt.Exact(field) != br.Exact(field) || tg != rg || tr != rr {
				t.Fatalf("%s bounds %v (%v, exact %v), $or %v (%v, exact %v)", field, ti, tok, bt.Exact(field), ri, rok, br.Exact(field))
			}
		}
		for _, sh := range s.Cluster().Shards() {
			pt, pr := query.CandidatePlans(sh.Coll, ft), query.CandidatePlans(sh.Coll, fr)
			if len(pt) != len(pr) {
				t.Fatalf("%d candidate plans, $or %d", len(pt), len(pr))
			}
			for i := range pt {
				if pt[i].Name() != pr[i].Name() || !sameSegments(pt[i].Segments, pr[i].Segments) ||
					pt[i].Filter.String() != pr[i].Filter.String() {
					t.Fatalf("plan %s over %d segments refining %s; $or: %s over %d refining %s",
						pt[i].Name(), len(pt[i].Segments), pt[i].Filter, pr[i].Name(), len(pr[i].Segments), pr[i].Filter)
				}
			}
		}
		// The router prunes on a KeyRanges only: the shards the $or
		// targets are the typed query's, targeted or pruned.
		c := s.Cluster()
		tt, tb, tp := c.Route(ft)
		rt, rb, rp := c.Route(fr)
		all := append(slices.Clone(tt), tp...)
		slices.Sort(all)
		if !slices.Equal(slices.Compact(all), rt) || len(all) != len(tt)+len(tp) || tb != rb || rp != nil {
			t.Fatalf("routed to %v (%v, pruned %v), $or to %v (%v, %v)", tt, tb, tp, rt, rb, rp)
		}
		body, err := wire.AppendFilter(nil, ft)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := wire.DecodeFilter(body)
		if err != nil || decoded.String() != ft.String() {
			t.Fatalf("wire round trip: %v\n got %v\nwant %s", err, decoded, ft)
		}
		// The typed query's result is the $or's without the shards it
		// pruned, none of which found a document.
		want := c.Query(fr)
		perShard := want.PerShard
		want.PerShard, want.MaxKeysExamined, want.MaxDocsExamined = nil, 0, 0
		for i, sid := range want.TargetedShards {
			st := perShard[i]
			if slices.Contains(tp, sid) {
				if st.NReturned != 0 || st.DocsExamined != 0 {
					t.Fatalf("pruned shard %d returned %d docs, examined %d under the $or", sid, st.NReturned, st.DocsExamined)
				}
				continue
			}
			want.PerShard = append(want.PerShard, st)
			want.MaxKeysExamined = max(want.MaxKeysExamined, st.KeysExamined)
			want.MaxDocsExamined = max(want.MaxDocsExamined, st.DocsExamined)
		}
		want.TargetedShards, want.ShardsTargeted, want.ShardsPruned = tt, len(tt), len(tp)
		for _, g := range []query.Filter{ft, decoded} {
			if got := c.Query(g); !sameRouted(got, want) {
				t.Fatalf("%s returned %d docs from %v, $or %d from %v", g, got.TotalReturned, got.TargetedShards,
					want.TotalReturned, want.TargetedShards)
			}
		}
		// Explain lists the typed query's targets, then its pruned
		// shards marked as such, each explained as under the $or.
		_, et := c.Explain(ft)
		targets, er := c.Explain(fr)
		var wantExp []*query.Explanation
		for k, sid := range append(slices.Clone(tt), tp...) {
			e := *er[slices.Index(targets, sid)]
			e.Pruned = k >= len(tt)
			wantExp = append(wantExp, &e)
		}
		for i := range et {
			et[i].Execution.Duration, wantExp[i].Execution.Duration = 0, 0
		}
		if !reflect.DeepEqual(et, wantExp) {
			t.Fatalf("explain differs:\n%v\n$or:\n%v", et, wantExp)
		}
	})
}
