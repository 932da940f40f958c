package query

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bson"
	"repro/internal/collection"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/sfc"
	"repro/internal/sthash"
)

// TestSkipScanEquivalentToFlatScan drives the same compound-index
// query with and without sub-bounds and checks identical results with
// fewer (or equal) keys examined.
func TestSkipScanEquivalentToFlatScan(t *testing.T) {
	c := collection.New("t")
	mustIndex(t, c, index.Definition{Name: "hd", Fields: []index.Field{
		{Name: "hilbertIndex", Kind: index.Ascending},
		{Name: "date", Kind: index.Ascending},
	}})
	rng := rand.New(rand.NewSource(3))
	for i := int64(0); i < 3000; i++ {
		doc := bson.FromD(bson.D{
			{Key: "_id", Value: i},
			{Key: "location", Value: geo.GeoJSONPoint(geo.Point{Lon: 23.7, Lat: 37.9})},
			{Key: "hilbertIndex", Value: int64(rng.Intn(50))}, // heavy duplication
			{Key: "date", Value: baseTime.Add(time.Duration(rng.Int63n(int64(100 * 24 * time.Hour))))},
		})
		if _, err := c.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	f := cellWindow(10, 30, baseTime.Add(24*time.Hour), baseTime.Add(48*time.Hour))
	plans := CandidatePlans(c, f)
	if len(plans) != 1 {
		t.Fatalf("got %d plans", len(plans))
	}
	skip := plans[0]
	if len(skip.Segments) == 0 || skip.Segments[0].SubLo == nil {
		t.Fatalf("plan has no skip-scan sub-bounds: %+v", skip.Segments)
	}
	// Flat variant: same segments with sub-bounds stripped, and the
	// full filter (the sub-bounds covered the date predicate).
	flat := &Plan{Index: skip.Index, Filter: f}
	for _, s := range skip.Segments {
		flat.Segments = append(flat.Segments, Segment{Interval: s.Interval})
	}
	rSkip := ExecutePlan(c, skip)
	rFlat := ExecutePlan(c, flat)
	if rSkip.Stats.NReturned != rFlat.Stats.NReturned {
		t.Fatalf("skip scan returned %d, flat %d", rSkip.Stats.NReturned, rFlat.Stats.NReturned)
	}
	if rSkip.Stats.NReturned == 0 {
		t.Fatal("empty result; test data broken")
	}
	if rSkip.Stats.KeysExamined >= rFlat.Stats.KeysExamined {
		t.Fatalf("skip scan examined %d keys, flat %d", rSkip.Stats.KeysExamined, rFlat.Stats.KeysExamined)
	}
	if rSkip.Stats.DocsExamined >= rFlat.Stats.DocsExamined {
		t.Fatalf("skip scan fetched %d docs, flat %d", rSkip.Stats.DocsExamined, rFlat.Stats.DocsExamined)
	}
}

// TestSkipScanRandomizedAgainstReference fuzzes bounds over a skewed
// two-field collection.
func TestSkipScanRandomizedAgainstReference(t *testing.T) {
	c := collection.New("t")
	mustIndex(t, c, index.Definition{Name: "hd", Fields: []index.Field{
		{Name: "hilbertIndex", Kind: index.Ascending},
		{Name: "date", Kind: index.Ascending},
	}})
	rng := rand.New(rand.NewSource(11))
	for i := int64(0); i < 2000; i++ {
		doc := bson.FromD(bson.D{
			{Key: "_id", Value: i},
			{Key: "location", Value: geo.GeoJSONPoint(geo.Point{Lon: 23.7, Lat: 37.9})},
			{Key: "hilbertIndex", Value: int64(rng.Intn(40))},
			{Key: "date", Value: baseTime.Add(time.Duration(rng.Intn(1000)) * time.Minute)},
		})
		if _, err := c.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	f := func(a0, a1 uint8, b0, b1 uint16) bool {
		alo, ahi := int64(a0%40), int64(a1%40)
		if alo > ahi {
			alo, ahi = ahi, alo
		}
		blo, bhi := time.Duration(b0%1000)*time.Minute, time.Duration(b1%1000)*time.Minute
		if blo > bhi {
			blo, bhi = bhi, blo
		}
		flt := cellWindow(alo, ahi, baseTime.Add(blo), baseTime.Add(bhi))
		want := ExecutePlan(c, &Plan{Filter: flt}).Stats.NReturned
		got := Execute(c, flt, nil).Stats.NReturned
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestCoveredPredicatesDropped checks that exact index bounds remove
// the matching conjuncts from the residual filter.
func TestCoveredPredicatesDropped(t *testing.T) {
	c := newCollWithIndexes(t, 200)
	f := &Spec{Rect: geo.NewRect(23.6, 37.8, 23.9, 38.1), From: baseTime, To: baseTime.Add(24 * time.Hour), Key: HilbertKey,
		Cells: []sfc.Range{{Lo: 0, Hi: 10000}, {Lo: 70000, Hi: 70000}}}
	seen := 0
	for _, p := range CandidatePlans(c, f) {
		res, ok := p.Filter.(residual)
		if !ok {
			t.Fatalf("%s refines a %T", p.Name(), p.Filter)
		}
		switch p.Name() {
		case "{hilbertIndex: 1, date: 1}":
			// Both fields covered: only the geo predicate remains.
			if !res.geoOnly() || strings.Contains(res.String(), "date") {
				t.Fatalf("hd residual = %s", p.Filter)
			}
		case "{date: 1}":
			// The date range is covered; geo and hilbert constraints
			// remain.
			if res.window || !res.key || strings.Contains(res.String(), "date") {
				t.Fatalf("date residual = %s", p.Filter)
			}
		case "{location: 2dsphere, date: 1}":
			// Geo bounds over-cover; everything stays.
			if res.String() != f.String() {
				t.Fatalf("geo plan dropped conjuncts: %s", p.Filter)
			}
		}
		seen++
	}
	if seen != 3 {
		t.Fatalf("%d candidate plans, want 3", seen)
	}
}

// TestCoveredPredicatesRespectTypeBracketing: the window is covered by
// a date index because its bounds stay within the date class, so a
// collection whose date field holds numbers, strings and booleans too
// stays correct.
func TestCoveredPredicatesRespectTypeBracketing(t *testing.T) {
	c := collection.New("t")
	mustIndex(t, c, index.Definition{Name: "date", Fields: []index.Field{{Name: "date", Kind: index.Ascending}}})
	vals := []any{int64(1), int64(9), "alpha", "zulu", true, nil, baseTime.Add(time.Hour), baseTime.Add(48 * time.Hour)}
	for i, v := range vals {
		doc := bson.FromD(bson.D{{Key: "_id", Value: int64(i)}, {Key: "location", Value: geo.GeoJSONPoint(geo.Point{Lon: 23.7, Lat: 37.9})}, {Key: "date", Value: v}})
		if _, err := c.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	f := window(baseTime, baseTime.Add(24*time.Hour))
	res := Execute(c, f, nil)
	if res.Stats.IndexUsed != "{date: 1}" || !CandidatePlans(c, f)[0].Filter.(residual).geoOnly() {
		t.Fatalf("the window is not covered by the date index (%s)", res.Stats.IndexUsed)
	}
	if res.Stats.NReturned != 1 || res.Stats.KeysExamined > 2 {
		t.Fatalf("date range returned %d docs over %d keys", res.Stats.NReturned, res.Stats.KeysExamined)
	}
	if got := res.Docs[0].Get("date"); got != baseTime.Add(time.Hour) {
		t.Fatalf("date range returned %v", res.Docs[0])
	}
}

// TestSubMillisecondWindowIsExact: a stored date is a whole
// millisecond, so a window whose ends fall inside one admits exactly
// the dates a collection scan admits, though an index covers it.
func TestSubMillisecondWindowIsExact(t *testing.T) {
	c := buildCollection(t, 500)
	mustIndex(t, c, index.Definition{Name: "date", Fields: []index.Field{{Name: "date", Kind: index.Ascending}}})
	for i, raw := range ExecutePlan(c, &Plan{Filter: window(anyFrom, anyTo)}).Docs {
		at := raw.Get("date").(time.Time)
		for _, f := range []*Spec{
			window(at.Add(500*time.Microsecond), at.Add(time.Hour)),
			window(at.Add(-time.Hour), at.Add(-time.Microsecond)),
			window(at.Add(-300*time.Microsecond), at.Add(300*time.Microsecond)),
			window(at.Add(200*time.Microsecond), at.Add(700*time.Microsecond)),
		} {
			idx, ref := Execute(c, f, nil), ExecutePlan(c, &Plan{Filter: f}).Stats.NReturned
			if idx.Stats.IndexUsed != "{date: 1}" || idx.Stats.NReturned != ref {
				t.Fatalf("document %d, window %v..%v: %s returned %d, a collection scan %d",
					i, f.From, f.To, idx.Stats.IndexUsed, idx.Stats.NReturned, ref)
			}
		}
	}
}

func TestPlanCacheHitAndReplan(t *testing.T) {
	c := newCollWithIndexes(t, 2000)
	// Constrains both hilbertIndex and date so at least two indexes
	// compete and a trial runs.
	shapeA := func(lo, hi int64) Filter {
		return cellWindow(lo, hi, baseTime, baseTime.Add(20*24*time.Hour))
	}
	// First execution trials and caches.
	r1 := Execute(c, shapeA(100, 200), nil)
	if len(r1.Trials) == 0 {
		t.Fatal("first execution ran no trials")
	}
	// Same shape, different constants: cache hit, no trials.
	r2 := Execute(c, shapeA(5000, 9000), nil)
	if len(r2.Trials) != 0 {
		t.Fatalf("cache hit still ran trials: %v", r2.Trials)
	}
	if r2.Stats.IndexUsed != r1.Stats.IndexUsed {
		t.Fatalf("cached plan switched index: %s vs %s", r2.Stats.IndexUsed, r1.Stats.IndexUsed)
	}
	// A different shape (geo + date constrains two other indexes)
	// misses the cache and trials again.
	r3 := Execute(c, rectWindow(testArea, baseTime, baseTime.Add(time.Hour)), nil)
	if len(r3.Trials) == 0 {
		t.Fatal("different shape hit the cache")
	}
	ClearPlanCache(c)
	r4 := Execute(c, shapeA(100, 200), nil)
	if len(r4.Trials) == 0 {
		t.Fatal("cache not cleared")
	}
}

func TestShapeOfIgnoresConstants(t *testing.T) {
	// The window and the cover are parameterized: only the key field
	// and the rectangle are part of the shape.
	rect := geo.NewRect(0, 0, 1, 1)
	f1 := rectWindow(rect, baseTime, baseTime.Add(time.Hour))
	f1b := rectWindow(rect, baseTime.Add(99*time.Hour), baseTime.Add(100*time.Hour))
	if ShapeOf(f1) != ShapeOf(f1b) {
		t.Fatalf("date constants leaked into shape:\n%s\n%s", ShapeOf(f1), ShapeOf(f1b))
	}
	// Geo predicates are NOT parameterized (as on the server):
	// distinct rectangles are distinct shapes.
	if ShapeOf(f1) == ShapeOf(rectWindow(geo.NewRect(50, 50, 60, 60), baseTime, baseTime.Add(time.Hour))) {
		t.Fatal("different geo rectangles share a shape")
	}
	// Covers of any size share a shape (the Hilbert cover varies per
	// query rectangle); the key field does not.
	h1 := &Spec{Rect: rect, From: baseTime, To: baseTime, Key: HilbertKey, Cells: []sfc.Range{{Lo: 1, Hi: 2}}}
	h2 := &Spec{Rect: rect, From: baseTime, To: baseTime, Key: HilbertKey,
		Cells: []sfc.Range{{Lo: 5, Hi: 9}, {Lo: 20, Hi: 30}, {Lo: 77, Hi: 77}}}
	if ShapeOf(h1) != ShapeOf(h2) {
		t.Fatalf("covers of different sizes differ in shape:\n%s\n%s", ShapeOf(h1), ShapeOf(h2))
	}
	st := &Spec{Rect: rect, From: baseTime, To: baseTime, Key: STHashKey, Strings: []sthash.Range{{Lo: "1", Hi: "2"}}}
	if ShapeOf(h1) == ShapeOf(f1) || ShapeOf(h1) == ShapeOf(st) || ShapeOf(st) == ShapeOf(f1) {
		t.Fatalf("key fields share a shape: %s, %s, %s", ShapeOf(f1), ShapeOf(h1), ShapeOf(st))
	}
}

// TestTrialRespectsBudget ensures trials stop near the configured
// work budget instead of running plans to completion.
func TestTrialRespectsBudget(t *testing.T) {
	c := newCollWithIndexes(t, 5000)
	f := rectWindow(testArea, baseTime, baseTime.Add(30*24*time.Hour))
	cfg := &Config{TrialWorks: 50}
	_, trials := ChoosePlan(c, f, cfg)
	for _, tr := range trials {
		if !tr.Completed && tr.Works > 2*cfg.TrialWorks {
			t.Fatalf("trial overshot budget: %+v", tr)
		}
	}
}

func TestCandidatePlanForEachUsableIndex(t *testing.T) {
	c := newCollWithIndexes(t, 100)
	f := &Spec{Rect: testArea, From: baseTime, To: baseTime.Add(time.Hour), Key: HilbertKey, Cells: []sfc.Range{{Lo: 0, Hi: 1 << 40}}}
	plans := CandidatePlans(c, f)
	names := map[string]bool{}
	for _, p := range plans {
		names[p.Name()] = true
	}
	for _, want := range []string{
		"{hilbertIndex: 1, date: 1}",
		"{location: 2dsphere, date: 1}",
		"{date: 1}",
	} {
		if !names[want] {
			t.Errorf("missing candidate %s (got %v)", want, names)
		}
	}
	if names[CollScanName] {
		t.Error("collscan offered despite usable indexes")
	}
}

func TestSegmentStringAndPlanName(t *testing.T) {
	p := &Plan{}
	if p.Name() != CollScanName {
		t.Fatalf("nil-index plan name = %s", p.Name())
	}
}

func TestExecuteOnEmptyCollection(t *testing.T) {
	c := collection.New("empty")
	mustIndex(t, c, index.Definition{Name: "date", Fields: []index.Field{{Name: "date", Kind: index.Ascending}}})
	res := Execute(c, window(anyFrom, anyTo), nil)
	if res.Stats.NReturned != 0 || res.Stats.KeysExamined != 0 {
		t.Fatalf("empty collection stats: %+v", res.Stats)
	}
}

// TestThreeFieldCompoundComposition checks point-chaining through a
// three-field index: a single-cell cover and a one-instant window
// compose into a prefix, the location's geohash cells scan as ranges.
func TestThreeFieldCompoundComposition(t *testing.T) {
	c := collection.New("t")
	mustIndex(t, c, index.Definition{Name: "hdl", Fields: []index.Field{
		{Name: "hilbertIndex", Kind: index.Ascending},
		{Name: "date", Kind: index.Ascending},
		{Name: "location", Kind: index.Geo2DSphere},
	}})
	rng := rand.New(rand.NewSource(21))
	for i := int64(0); i < 3000; i++ {
		p := geo.Point{Lon: testArea.Min.Lon + rng.Float64()*testArea.Width(), Lat: testArea.Min.Lat + rng.Float64()*testArea.Height()}
		doc := bson.FromD(bson.D{
			{Key: "_id", Value: i},
			{Key: "hilbertIndex", Value: int64(rng.Intn(5))},
			{Key: "date", Value: baseTime.Add(time.Duration(rng.Intn(10)) * time.Hour)},
			{Key: "location", Value: geo.GeoJSONPoint(p)},
		})
		if _, err := c.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	at := baseTime.Add(7 * time.Hour)
	f := &Spec{Rect: testArea, From: at, To: at, Key: HilbertKey, Cells: []sfc.Range{{Lo: 2, Hi: 2}}}
	want := ExecutePlan(c, &Plan{Filter: f}).Stats.NReturned
	res := Execute(c, f, nil)
	if res.Stats.NReturned != want {
		t.Fatalf("returned %d, want %d", res.Stats.NReturned, want)
	}
	if want == 0 {
		t.Fatal("vacuous")
	}
	// The composed plan must be tight: keys examined are the results
	// plus at most the one key past each geohash segment's end.
	segs := len(CandidatePlans(c, f)[0].Segments)
	if res.Stats.KeysExamined > want+segs {
		t.Fatalf("three-field composition loose: %d keys for %d results over %d segments",
			res.Stats.KeysExamined, want, segs)
	}
	// Several single cells on the leading field fan out across
	// prefixes.
	f2 := &Spec{Rect: geo.NewRect(23.6, 37.6, 24.2, 38.2), From: at, To: at, Key: HilbertKey,
		Cells: []sfc.Range{{Lo: 1, Hi: 1}, {Lo: 3, Hi: 3}}}
	want2 := ExecutePlan(c, &Plan{Filter: f2}).Stats.NReturned
	if got := Execute(c, f2, nil).Stats.NReturned; got != want2 || want2 == 0 {
		t.Fatalf("cell fan-out returned %d, want %d", got, want2)
	}
}

// TestShapeOfGolden pins the plan-cache keys byte for byte: a
// daemon's cache must not notice a change of how they are built.
func TestShapeOfGolden(t *testing.T) {
	rect := geo.NewRect(23.606039, 38.023982, 24.0327544, 38.3539265)
	for _, tc := range []struct {
		f    Filter
		want string
	}{
		{&Spec{Rect: rect, From: baseTime, To: baseTime.Add(time.Hour), Key: HilbertKey,
			Cells: []sfc.Range{{Lo: 5, Hi: 9}, {Lo: 20, Hi: 30}, {Lo: 77, Hi: 77}}},
			"hilbertIndex$geoWithin[[(23.606039, 38.023982), (24.032754, 38.353927)]]"},
		{&Spec{Rect: rect, Key: HilbertKey}, "hilbertIndex$geoWithin[[(23.606039, 38.023982), (24.032754, 38.353927)]]"},
		{&Spec{Rect: rect, Key: STHashKey, Strings: []sthash.Range{{Lo: "a", Hi: "b"}}},
			"stHash$geoWithin[[(23.606039, 38.023982), (24.032754, 38.353927)]]"},
		{rectWindow(geo.NewRect(-179.9999999, -89.5, 0.0000004, 1e-7), baseTime, baseTime),
			"$geoWithin[[(-180.000000, -89.500000), (0.000000, 0.000000)]]"},
	} {
		if got := ShapeOf(tc.f); got != tc.want {
			t.Errorf("ShapeOf(%s)\n got %s\nwant %s", tc.f, got, tc.want)
		}
		if got := ShapeOf(Prepare(tc.f)); got != tc.want {
			t.Errorf("ShapeOf(Prepare(%s)) = %s, want %s", tc.f, got, tc.want)
		}
	}
}

// planCacheLen counts the cache's entries the slow way.
func planCacheLen(c *collection.Collection) int {
	n := 0
	c.PlanCache.Range(func(_, _ any) bool { n++; return true })
	return n
}

// TestPlanCacheIsCapped: a geo predicate's rectangle is part of its
// shape, so a stream of distinct rectangles is a stream of distinct
// cache keys. Ten times the cap of them must leave at most the cap
// behind, with the entry counter exact, one miss counted per first
// execution, one hit per repeat, and the same winner chosen as on a
// collection that never overflowed.
func TestPlanCacheIsCapped(t *testing.T) {
	c, fresh := newCollWithIndexes(t, 60), newCollWithIndexes(t, 60)
	rectFilter := func(i int) Filter {
		lon := 23.5 + float64(i)*1e-5
		return rectWindow(geo.NewRect(lon, 37.6, lon+0.4, 38.2), baseTime, baseTime.Add(10*24*time.Hour))
	}
	const distinct = 10 * planCacheCap
	for i := 0; i < distinct; i++ {
		Execute(c, rectFilter(i), nil)
		if i%1024 == 0 {
			if n := planCacheLen(c); n > planCacheCap {
				t.Fatalf("after %d distinct rectangles the cache holds %d entries, cap %d", i+1, n, planCacheCap)
			}
		}
	}
	if n, counted := planCacheLen(c), c.PlanCacheEntries.Load(); n > planCacheCap || int64(n) != counted {
		t.Fatalf("cache holds %d entries (counter says %d), cap %d", n, counted, planCacheCap)
	}
	if hits, misses := c.PlanCacheHits.Load(), c.PlanCacheMisses.Load(); hits != 0 || misses != distinct {
		t.Fatalf("%d distinct first executions counted %d hits and %d misses", distinct, hits, misses)
	}
	// The newest shapes survived the last overflow; repeating them hits,
	// and answers what a never-overflowed collection answers.
	for i := distinct - 8; i < distinct; i++ {
		f := rectFilter(i)
		got, want := Execute(c, f, nil), Execute(fresh, f, nil)
		if got.Stats.IndexUsed != want.Stats.IndexUsed || got.Stats.NReturned != want.Stats.NReturned {
			t.Fatalf("rectangle %d: %s returned %d after overflows, %s returned %d on a fresh collection",
				i, got.Stats.IndexUsed, got.Stats.NReturned, want.Stats.IndexUsed, want.Stats.NReturned)
		}
	}
	if hits, misses := c.PlanCacheHits.Load(), c.PlanCacheMisses.Load(); hits != 8 || misses != distinct {
		t.Fatalf("8 repeats counted %d hits and %d misses (want 8 and %d)", hits, misses, distinct)
	}
	// An eviction keeps the counter exact too.
	p := Prepare(rectFilter(distinct - 1))
	_, _, entry, ok := cachedPlan(c, p)
	if !ok {
		t.Fatal("newest shape not cached")
	}
	before := c.PlanCacheEntries.Load()
	evictPlan(c, p, entry)
	if after := c.PlanCacheEntries.Load(); after != before-1 || int64(planCacheLen(c)) != after {
		t.Fatalf("eviction moved the entry count %d -> %d with %d entries present", before, after, planCacheLen(c))
	}
}

// TestPreparedPlansOncePerQuery: a scatter prepares its filter once and
// every shard execution reuses the bounds, segments and residual.
// Executing one prepared 13-range cover on six one-index collections
// must cost — beyond the first — only the per-execution constant
// (result, stats), a small fraction of what deriving the plan from the
// bare filter costs each time. On collections with a choice of plans,
// each execution of the prepared filter is one plan-cache hit.
func TestPreparedPlansOncePerQuery(t *testing.T) {
	docs := benchRawDocs(256)
	colls := make([]*collection.Collection, 6)
	for i := range colls {
		colls[i] = benchHilbertColl(t, docs)
	}
	f := hilbertCover(geo.NewRect(23.7, 37.7, 24.3, 38.3), baseTime, baseTime.Add(24*time.Hour))
	over := func(n int, prepare bool) float64 {
		run := func() {
			q := f
			if prepare {
				q = Prepare(f)
			}
			for _, c := range colls[:n] {
				ExecuteOpts(c, q, nil, Opts{Limit: 1})
			}
		}
		run()
		return testing.AllocsPerRun(20, run)
	}
	const sharedMax = 3 // a prepared execution's per-shard allocations
	perExtraPrepared := (over(6, true) - over(1, true)) / 5
	perExtraBare := (over(6, false) - over(1, false)) / 5
	t.Logf("allocations per additional shard: %.0f prepared, %.0f bare", perExtraPrepared, perExtraBare)
	if perExtraPrepared > sharedMax {
		t.Fatalf("each additional shard of a prepared query allocates %.0f objects: planning is not shared", perExtraPrepared)
	}
	if perExtraBare < 2*sharedMax {
		t.Fatalf("bare executions allocate %.0f per shard, prepared ones may allocate %d: the test no longer tells them apart",
			perExtraBare, sharedMax)
	}
	// Sharing the plan must not share the counters: one hit per execution.
	p := Prepare(f)
	for i := range colls {
		c := newCollWithIndexes(t, 200)
		Execute(c, f, nil) // remember the winner
		before := c.PlanCacheHits.Load()
		Execute(c, p, nil)
		if got := c.PlanCacheHits.Load(); got != before+1 {
			t.Fatalf("collection %d: plan-cache hits %d -> %d on one prepared execution", i, before, got)
		}
	}
}

// TestOnePlanSkipsPlanCache: a filter with one candidate plan — through
// the one index, a collection scan, or the empty plan of an impossible
// filter — runs that plan directly, executed or explained: the
// collection's plan cache stays empty, counts no hit and no miss, and
// no execution runs trials.
func TestOnePlanSkipsPlanCache(t *testing.T) {
	c := benchHilbertColl(t, benchRawDocs(256))
	for _, f := range []Filter{
		hilbertCover(geo.NewRect(23.7, 37.7, 24.3, 38.3), baseTime, baseTime.Add(24*time.Hour)),
		rectSpec(geo.NewRect(23.7, 37.7, 24.3, 38.3)),
		cells(),
	} {
		if n := len(CandidatePlans(c, f)); n != 1 {
			t.Fatalf("%s: %d candidate plans, want 1", f, n)
		}
		for i := 0; i < 3; i++ {
			if res := Execute(c, f, nil); res.Trials != nil {
				t.Fatalf("%s: execution %d ran trials", f, i)
			}
			if ex := Explain(c, f, nil); ex.CacheHit {
				t.Fatalf("%s: explain %d reports a plan-cache hit", f, i)
			}
		}
	}
	if n, hits, misses := planCacheLen(c), c.PlanCacheHits.Load(), c.PlanCacheMisses.Load(); n != 0 || hits != 0 || misses != 0 {
		t.Fatalf("one-plan filters left %d cache entries, %d hits, %d misses", n, hits, misses)
	}
}
