package query

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bson"
	"repro/internal/collection"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/sfc"
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
			{Key: "hilbertIndex", Value: int64(rng.Intn(50))}, // heavy duplication
			{Key: "date", Value: baseTime.Add(time.Duration(rng.Int63n(int64(100 * 24 * time.Hour))))},
		})
		if _, err := c.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	f := NewAnd(
		Cmp{Field: "hilbertIndex", Op: OpGTE, Value: int64(10)},
		Cmp{Field: "hilbertIndex", Op: OpLTE, Value: int64(30)},
		TimeRangeFilter("date", baseTime.Add(24*time.Hour), baseTime.Add(48*time.Hour)),
	)
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
		{Name: "a", Kind: index.Ascending},
		{Name: "b", Kind: index.Ascending},
	}})
	rng := rand.New(rand.NewSource(11))
	for i := int64(0); i < 2000; i++ {
		doc := bson.FromD(bson.D{
			{Key: "_id", Value: i},
			{Key: "a", Value: int64(rng.Intn(40))},
			{Key: "b", Value: int64(rng.Intn(1000))},
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
		blo, bhi := int64(b0%1000), int64(b1%1000)
		if blo > bhi {
			blo, bhi = bhi, blo
		}
		flt := NewAnd(
			Cmp{Field: "a", Op: OpGTE, Value: alo},
			Cmp{Field: "a", Op: OpLTE, Value: ahi},
			Cmp{Field: "b", Op: OpGTE, Value: blo},
			Cmp{Field: "b", Op: OpLTE, Value: bhi},
		)
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
	f := NewAnd(
		GeoWithin{Field: "location", Rect: geo.NewRect(23.6, 37.8, 23.9, 38.1)},
		TimeRangeFilter("date", baseTime, baseTime.Add(24*time.Hour)),
		NewOr(
			NewAnd(
				Cmp{Field: "hilbertIndex", Op: OpGTE, Value: int64(0)},
				Cmp{Field: "hilbertIndex", Op: OpLTE, Value: int64(10000)},
			),
			In{Field: "hilbertIndex", Values: []any{int64(70000)}},
		),
	)
	for _, p := range CandidatePlans(c, f) {
		res, ok := p.Filter.(And)
		if !ok {
			continue
		}
		switch p.Name() {
		case "{hilbertIndex: 1, date: 1}":
			// Both fields covered: only the geo predicate remains.
			if len(res.Children) != 1 {
				t.Fatalf("hd residual = %s", p.Filter)
			}
			if _, isGeo := res.Children[0].(GeoWithin); !isGeo {
				t.Fatalf("hd residual kept %s", res.Children[0])
			}
		case "{date: 1}":
			// The date range is covered; geo and hilbert constraints
			// remain.
			for _, child := range res.Children {
				if cmp, isCmp := child.(Cmp); isCmp && cmp.Field == "date" {
					t.Fatalf("date residual kept %s", child)
				}
			}
		case "{location: 2dsphere, date: 1}":
			// Geo bounds over-cover; everything stays.
			if len(res.Children) != len(f.Children) {
				t.Fatalf("geo plan dropped conjuncts: %s", p.Filter)
			}
		}
	}
}

// TestCoveredPredicatesRespectTypeBracketing: an open range on a
// string field must NOT be treated as covered (its bounds extend to
// the class sentinels), so mixed-type collections stay correct.
func TestCoveredPredicatesRespectTypeBracketing(t *testing.T) {
	c := collection.New("t")
	mustIndex(t, c, index.Definition{Name: "v", Fields: []index.Field{{Name: "v", Kind: index.Ascending}}})
	vals := []any{int64(1), int64(9), "alpha", "zulu", true, time.Now()}
	for i, v := range vals {
		doc := bson.FromD(bson.D{{Key: "_id", Value: int64(i)}, {Key: "v", Value: v}})
		if _, err := c.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	// {$gt: "m"} must match only "zulu", not the datetime or bool that
	// sort above strings.
	f := Cmp{Field: "v", Op: OpGT, Value: "m"}
	res := Execute(c, f, nil)
	if res.Stats.NReturned != 1 {
		t.Fatalf("string range returned %d docs", res.Stats.NReturned)
	}
	if res.Docs[0].Get("v") != "zulu" {
		t.Fatalf("string range returned %v", res.Docs[0])
	}
	// Numeric open range: covered but still correct across classes.
	f2 := Cmp{Field: "v", Op: OpGTE, Value: int64(5)}
	res2 := Execute(c, f2, nil)
	if res2.Stats.NReturned != 1 || res2.Docs[0].Get("v") != int64(9) {
		t.Fatalf("numeric range returned %v", res2.Docs)
	}
}

func TestPlanCacheHitAndReplan(t *testing.T) {
	c := newCollWithIndexes(t, 2000)
	// Constrains both hilbertIndex and date so at least two indexes
	// compete and a trial runs.
	shapeA := func(lo, hi int64) Filter {
		return NewAnd(
			Cmp{Field: "hilbertIndex", Op: OpGTE, Value: lo},
			Cmp{Field: "hilbertIndex", Op: OpLTE, Value: hi},
			TimeRangeFilter("date", baseTime, baseTime.Add(20*24*time.Hour)),
		)
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
	r3 := Execute(c, NewAnd(
		GeoWithin{Field: "location", Rect: testArea},
		TimeRangeFilter("date", baseTime, baseTime.Add(time.Hour)),
	), nil)
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
	// Ordinary comparisons are parameterized: only the value class is
	// part of the shape.
	f1 := NewAnd(
		GeoWithin{Field: "location", Rect: geo.NewRect(0, 0, 1, 1)},
		Cmp{Field: "date", Op: OpGTE, Value: baseTime},
	)
	f1b := NewAnd(
		GeoWithin{Field: "location", Rect: geo.NewRect(0, 0, 1, 1)},
		Cmp{Field: "date", Op: OpGTE, Value: baseTime.Add(99 * time.Hour)},
	)
	if ShapeOf(f1) != ShapeOf(f1b) {
		t.Fatalf("date constants leaked into shape:\n%s\n%s", ShapeOf(f1), ShapeOf(f1b))
	}
	// Geo predicates are NOT parameterized (as on the server):
	// distinct rectangles are distinct shapes.
	f2 := NewAnd(
		GeoWithin{Field: "location", Rect: geo.NewRect(50, 50, 60, 60)},
		Cmp{Field: "date", Op: OpGTE, Value: baseTime.Add(time.Hour)},
	)
	if ShapeOf(f1) == ShapeOf(f2) {
		t.Fatal("different geo rectangles share a shape")
	}
	// Different arm counts of the same single-field $or share a shape
	// (the Hilbert cover varies per query rectangle).
	or1 := NewOr(
		NewAnd(Cmp{Field: "h", Op: OpGTE, Value: int64(1)}, Cmp{Field: "h", Op: OpLTE, Value: int64(2)}),
	)
	or2 := NewOr(
		NewAnd(Cmp{Field: "h", Op: OpGTE, Value: int64(5)}, Cmp{Field: "h", Op: OpLTE, Value: int64(9)}),
		NewAnd(Cmp{Field: "h", Op: OpGTE, Value: int64(20)}, Cmp{Field: "h", Op: OpLTE, Value: int64(30)}),
		In{Field: "h", Values: []any{int64(77)}},
	)
	s1 := ShapeOf(NewAnd(or1, Cmp{Field: "date", Op: OpGTE, Value: baseTime}))
	s2 := ShapeOf(NewAnd(or2, NewAnd(Cmp{Field: "date", Op: OpGTE, Value: baseTime})))
	_ = s2
	// or1 lacks the $in arm, so shapes may differ; what must hold is
	// that identical structure with different constants is equal:
	or3 := NewOr(
		NewAnd(Cmp{Field: "h", Op: OpGTE, Value: int64(100)}, Cmp{Field: "h", Op: OpLTE, Value: int64(200)}),
		NewAnd(Cmp{Field: "h", Op: OpGTE, Value: int64(300)}, Cmp{Field: "h", Op: OpLTE, Value: int64(400)}),
		In{Field: "h", Values: []any{int64(55), int64(66)}},
	)
	s3 := ShapeOf(NewAnd(or2, Cmp{Field: "date", Op: OpGTE, Value: baseTime}))
	s4 := ShapeOf(NewAnd(or3, Cmp{Field: "date", Op: OpGTE, Value: baseTime}))
	if s3 != s4 {
		t.Fatalf("or shapes with same arm structure differ:\n%s\n%s", s3, s4)
	}
	_ = s1
}

// TestTrialRespectsBudget ensures trials stop near the configured
// work budget instead of running plans to completion.
func TestTrialRespectsBudget(t *testing.T) {
	c := newCollWithIndexes(t, 5000)
	f := NewAnd(
		GeoWithin{Field: "location", Rect: testArea},
		TimeRangeFilter("date", baseTime, baseTime.Add(30*24*time.Hour)),
	)
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
	f := NewAnd(
		GeoWithin{Field: "location", Rect: testArea},
		TimeRangeFilter("date", baseTime, baseTime.Add(time.Hour)),
		Cmp{Field: "hilbertIndex", Op: OpGTE, Value: int64(0)},
	)
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
	mustIndex(t, c, index.Definition{Name: "v", Fields: []index.Field{{Name: "v", Kind: index.Ascending}}})
	res := Execute(c, Cmp{Field: "v", Op: OpGTE, Value: int64(0)}, nil)
	if res.Stats.NReturned != 0 || res.Stats.KeysExamined != 0 {
		t.Fatalf("empty collection stats: %+v", res.Stats)
	}
}

// TestThreeFieldCompoundComposition checks point-chaining through a
// three-field index: equality on the first two fields composes into a
// prefix, the third field scans as a range.
func TestThreeFieldCompoundComposition(t *testing.T) {
	c := collection.New("t")
	mustIndex(t, c, index.Definition{Name: "abc", Fields: []index.Field{
		{Name: "a", Kind: index.Ascending},
		{Name: "b", Kind: index.Ascending},
		{Name: "c", Kind: index.Ascending},
	}})
	rng := rand.New(rand.NewSource(21))
	for i := int64(0); i < 3000; i++ {
		doc := bson.FromD(bson.D{
			{Key: "_id", Value: i},
			{Key: "a", Value: int64(rng.Intn(5))},
			{Key: "b", Value: int64(rng.Intn(10))},
			{Key: "c", Value: int64(rng.Intn(1000))},
		})
		if _, err := c.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	f := NewAnd(
		Cmp{Field: "a", Op: OpEQ, Value: int64(2)},
		Cmp{Field: "b", Op: OpEQ, Value: int64(7)},
		Cmp{Field: "c", Op: OpGTE, Value: int64(100)},
		Cmp{Field: "c", Op: OpLTE, Value: int64(300)},
	)
	want := ExecutePlan(c, &Plan{Filter: f}).Stats.NReturned
	res := Execute(c, f, nil)
	if res.Stats.NReturned != want {
		t.Fatalf("returned %d, want %d", res.Stats.NReturned, want)
	}
	if want == 0 {
		t.Fatal("vacuous")
	}
	// The composed plan must be tight: keys examined close to results.
	if res.Stats.KeysExamined > want+2 {
		t.Fatalf("three-field composition loose: %d keys for %d results",
			res.Stats.KeysExamined, want)
	}
	// $in on the leading field fans out across prefixes.
	f2 := NewAnd(
		In{Field: "a", Values: []any{int64(1), int64(3)}},
		Cmp{Field: "b", Op: OpEQ, Value: int64(2)},
		Cmp{Field: "c", Op: OpLTE, Value: int64(500)},
	)
	want2 := ExecutePlan(c, &Plan{Filter: f2}).Stats.NReturned
	if got := Execute(c, f2, nil).Stats.NReturned; got != want2 {
		t.Fatalf("$in fan-out returned %d, want %d", got, want2)
	}
}

type customFilter struct{ And }

// TestShapeOfGolden pins the plan-cache keys byte for byte: they were
// rendered through fmt before and are appended by hand now, and a
// daemon's cache (and every explain output) must not notice.
func TestShapeOfGolden(t *testing.T) {
	for _, tc := range []struct {
		f    Filter
		want string
	}{
		{NewAnd(
			GeoWithin{Field: "location", Rect: geo.NewRect(23.606039, 38.023982, 24.0327544, 38.3539265)},
			TimeRangeFilter("date", baseTime, baseTime.Add(time.Hour)),
			NewOr(
				NewAnd(Cmp{Field: "h", Op: OpGTE, Value: int64(5)}, Cmp{Field: "h", Op: OpLTE, Value: int64(9)}),
				NewAnd(Cmp{Field: "h", Op: OpGTE, Value: int64(20)}, Cmp{Field: "h", Op: OpLTE, Value: int64(30)}),
				In{Field: "h", Values: []any{int64(77)}},
			),
		), "and(location:$geoWithin[[(23.606039, 38.023982), (24.032754, 38.353927)]],date:$gte:8,date:$lte:8,or(and(h:$gte:2,h:$lte:2),h:$in))"},
		{Cmp{Field: "s", Op: OpEQ, Value: "x"}, "s:$eq:3"},
		{NewAnd(Cmp{Field: "n", Op: OpGT, Value: 5}, Cmp{Field: "b", Op: OpLT, Value: true}, Cmp{Field: "z", Op: OpEQ, Value: nil}),
			"and(n:$gt:2,b:$lt:7,z:$eq:1)"},
		{NewOr(), "or()"},
		{NewAnd(), "and()"},
		{GeoWithin{Field: "g", Rect: geo.NewRect(-179.9999999, -89.5, 0.0000004, 1e-7)},
			"g:$geoWithin[[(-180.000000, -89.500000), (0.000000, 0.000000)]]"},
		{customFilter{}, "query.customFilter"},
		{NewOr(In{Field: "b", Values: nil}, Cmp{Field: "a", Op: OpLTE, Value: 1.5}, In{Field: "b", Values: nil}), "or(a:$lte:2,b:$in)"},
		{KeyRanges{Field: "h", Ranges: []sfc.Range{{Lo: 5, Hi: 9}, {Lo: 20, Hi: 30}, {Lo: 77, Hi: 77}}}, "or(and(h:$gte:2,h:$lte:2),h:$in)"},
		{KeyRanges{Field: "h"}, "and(h:$gt:2,h:$lt:2)"},
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
		return NewAnd(
			GeoWithin{Field: "location", Rect: geo.NewRect(lon, 37.6, lon+0.4, 38.2)},
			TimeRangeFilter("date", baseTime, baseTime.Add(10*24*time.Hour)),
		)
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
		GeoWithin{Field: "location", Rect: geo.NewRect(23.7, 37.7, 24.3, 38.3)},
		NewAnd(
			Cmp{Field: "hilbertIndex", Op: OpGT, Value: int64(0)},
			Cmp{Field: "hilbertIndex", Op: OpLT, Value: int64(0)},
		),
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
