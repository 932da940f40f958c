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
	"repro/internal/geo"
	"repro/internal/keyenc"
	"repro/internal/query"
	"repro/internal/sfc"
	"repro/internal/storage"
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

// refInCells is the $or of Section 4.2.2 on one value: a number, of
// any numeric kind, within one of the ranges.
func refInCells(v any, ranges []sfc.Range) bool {
	x, ok := bson.NumericValue(v)
	return ok && slices.ContainsFunc(ranges, func(r sfc.Range) bool { return float64(r.Lo) <= x && x <= float64(r.Hi) })
}

// refMatches is the spec's predicate on a decoded document, field by
// field: a point in the rectangle, a date in the window, a cell in the
// cover.
func refMatches(doc *bson.Document, rect geo.Rect, from, to time.Time, ranges []sfc.Range) bool {
	loc, _ := doc.Lookup(FieldLoc)
	p, ok := geo.PointFromGeoJSON(loc)
	date, _ := doc.Lookup(FieldDate)
	at, isDate := date.(time.Time)
	cell, _ := doc.Lookup(FieldHilbert)
	return ok && rect.Contains(p) && isDate && !at.Before(from) && !at.After(to) && refInCells(cell, ranges)
}

// FuzzKeyRanges is the differential fuzz of the Hilbert approaches'
// query spec on hil and hil* stores: covers of random rectangles,
// coalesced or not, and empty ones, against the $or they stand for,
// evaluated field by field. It checks Store.Filter's spec; Matches on
// documents, raw and decoded, whose hilbertIndex is missing or of any
// kind; the bounds; every shard's candidate plan, segments and
// residual; the wire round trip; the route, pruning only shards
// without a match; the results against a scan of every stored
// document; and Explain's targets, then pruned shards.
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
		from := testStart.Add(time.Duration(in.intn(14*24)) * time.Hour)
		to := from.Add(time.Duration(1+in.intn(72)) * time.Hour)
		spec, _, _ := s.Filter(STQuery{Rect: rect, From: from, To: to})
		ranges := s.Grid().Cover(rect)
		if want := (&query.Spec{Rect: rect, From: from, To: to, Key: query.HilbertKey, Cells: ranges}); !reflect.DeepEqual(spec, want) {
			t.Fatalf("Store.Filter built %s, want %s", spec, want)
		}
		if in.intn(3) == 0 {
			ranges = sfc.CoalesceRanges(ranges, 1+in.intn(8))
			spec.Cells = ranges
		}

		inside := bson.D{
			{Key: FieldLoc, Value: geo.GeoJSONPoint(rect.Center())},
			{Key: FieldDate, Value: from},
		}
		for _, v := range in.probeValues(ranges) {
			d := append(slices.Clone(inside), bson.Elem{Key: "other", Value: int64(1)})
			if v != nil || in.intn(2) == 0 {
				d = append(d, bson.Elem{Key: FieldHilbert, Value: v})
			}
			doc := bson.FromD(d)
			want := refMatches(doc, rect, from, to, ranges)
			for _, probe := range []bson.Doc{doc, bson.Raw(bson.Marshal(doc))} {
				if got := spec.Matches(probe); got != want {
					t.Fatalf("%v (%T) in %v: Matches %v, the $or %v", v, v, ranges, got, want)
				}
			}
		}

		if n := spec.Intervals(FieldHilbert); n != len(ranges) || spec.Impossible() != (len(ranges) == 0) {
			t.Fatalf("%d ranges: %d intervals, impossible %v", len(ranges), n, spec.Impossible())
		}
		var keys keyenc.Buf
		for i, r := range ranges {
			lo, hi, point := spec.AppendInterval(&keys, nil, FieldHilbert, i)
			if !bytes.Equal(lo, keyenc.Encode(int64(r.Lo))) || !bytes.Equal(hi, keyenc.Encode(int64(r.Hi))) || point != (r.Lo == r.Hi) {
				t.Fatalf("range %v: interval %x..%x (point %v)", r, lo, hi, point)
			}
		}
		for _, sh := range s.Cluster().Shards() {
			plans := query.CandidatePlans(sh.Coll, spec)
			if len(plans) != 1 {
				t.Fatalf("%d candidate plans", len(plans))
			}
			p := plans[0]
			if len(ranges) == 0 {
				if len(p.Segments) != 0 {
					t.Fatalf("an empty cover plans %d segments", len(p.Segments))
				}
				continue
			}
			wantResidual := fmt.Sprintf("{$and: [{location: {$geoWithin: {$geometry: %s}}}]}", geo.GeoJSONPolygonFromRect(rect))
			if p.Name() != "{hilbertIndex: 1, date: 1}" || len(p.Segments) != len(ranges) || p.Filter.String() != wantResidual {
				t.Fatalf("plan %s over %d segments refining %s; want the shard key over %d refining %s",
					p.Name(), len(p.Segments), p.Filter, len(ranges), wantResidual)
			}
		}

		body, err := wire.Query{Filter: spec}.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := wire.DecodeQuery(body)
		if err != nil || !reflect.DeepEqual(decoded.Filter, spec) {
			t.Fatalf("wire round trip: %v\n got %v\nwant %s", err, decoded.Filter, spec)
		}

		// The answer is every stored document the $or admits; the route
		// targets every shard holding one and prunes none that does.
		c := s.Cluster()
		want := map[int]int{}
		total := 0
		for sid, sh := range c.Shards() {
			sh.Coll.Store().Walk(func(_ storage.RecordID, raw []byte) bool {
				doc, err := bson.Unmarshal(raw)
				if err != nil {
					t.Fatal(err)
				}
				if refMatches(doc, rect, from, to, ranges) {
					want[sid]++
					total++
				}
				return true
			})
		}
		targets, _, pruned := c.Route(spec)
		for sid := range want {
			if !slices.Contains(targets, sid) {
				t.Fatalf("shard %d holds %d matches, route %v (pruned %v)", sid, want[sid], targets, pruned)
			}
		}
		for _, g := range []query.Filter{spec, decoded.Filter} {
			got := c.Query(g)
			if got.TotalReturned != total || len(got.Docs) != total || !slices.Equal(got.TargetedShards, targets) || got.ShardsPruned != len(pruned) {
				t.Fatalf("returned %d docs from %v (pruned %d), want %d from %v (pruned %v)",
					got.TotalReturned, got.TargetedShards, got.ShardsPruned, total, targets, pruned)
			}
			for _, raw := range got.Docs {
				doc, _ := bson.Unmarshal(raw)
				if !refMatches(doc, rect, from, to, ranges) {
					t.Fatalf("returned a document the $or rejects: %v", doc)
				}
			}
		}
		// Explain lists the targets, then the pruned shards marked as
		// such; each explains the shard's share of the answer.
		shards, exps := c.Explain(spec)
		if !slices.Equal(shards, append(slices.Clone(targets), pruned...)) {
			t.Fatalf("explained %v, want %v then %v", shards, targets, pruned)
		}
		for i, e := range exps {
			if e.Pruned != (i >= len(targets)) || e.Execution.NReturned != want[shards[i]] {
				t.Fatalf("shard %d: explained pruned %v returning %d, want %d", shards[i], e.Pruned, e.Execution.NReturned, want[shards[i]])
			}
		}
	})
}
