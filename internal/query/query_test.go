package query

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/collection"
	"repro/internal/geo"
	"repro/internal/index"
)

var (
	baseTime = time.Date(2018, 7, 1, 0, 0, 0, 0, time.UTC)
	// A small patch around Athens.
	testArea = geo.NewRect(23.5, 37.5, 24.5, 38.5)
)

func stDoc(id int64, p geo.Point, at time.Time, hv int64) *bson.Document {
	return bson.FromD(bson.D{
		{Key: "_id", Value: id},
		{Key: "location", Value: geo.GeoJSONPoint(p)},
		{Key: "date", Value: at},
		{Key: "hilbertIndex", Value: hv},
		{Key: "vehicle", Value: "GRC-" + string(rune('A'+id%26))},
	})
}

// buildCollection loads n documents uniformly over testArea and 30
// days, with hilbertIndex = a coarse lon/lat cell id so interval
// plans have something real to scan.
func buildCollection(t testing.TB, n int) *collection.Collection {
	t.Helper()
	c := collection.New("traces")
	rng := rand.New(rand.NewSource(42))
	for i := int64(0); i < int64(n); i++ {
		p := geo.Point{
			Lon: testArea.Min.Lon + rng.Float64()*testArea.Width(),
			Lat: testArea.Min.Lat + rng.Float64()*testArea.Height(),
		}
		at := baseTime.Add(time.Duration(rng.Int63n(int64(30 * 24 * time.Hour))))
		hv := int64(int((p.Lon-testArea.Min.Lon)*100))*1000 + int64(int((p.Lat-testArea.Min.Lat)*100))
		if _, err := c.Insert(stDoc(i, p, at, hv)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestFilterMatching(t *testing.T) {
	at := baseTime.Add(3 * time.Hour)
	doc := stDoc(1, geo.Point{Lon: 23.7, Lat: 37.9}, at, 55)
	cases := []struct {
		f    Filter
		want bool
	}{
		{Cmp{Field: "hilbertIndex", Op: OpEQ, Value: int64(55)}, true},
		{Cmp{Field: "hilbertIndex", Op: OpEQ, Value: int64(56)}, false},
		{Cmp{Field: "hilbertIndex", Op: OpGT, Value: int64(54)}, true},
		{Cmp{Field: "hilbertIndex", Op: OpGTE, Value: int64(55)}, true},
		{Cmp{Field: "hilbertIndex", Op: OpLT, Value: int64(55)}, false},
		{Cmp{Field: "hilbertIndex", Op: OpLTE, Value: int64(55)}, true},
		// Type bracketing: a string bound never matches a number.
		{Cmp{Field: "hilbertIndex", Op: OpGT, Value: "0"}, false},
		{Cmp{Field: "missing", Op: OpGT, Value: int64(0)}, false},
		{Cmp{Field: "date", Op: OpGTE, Value: baseTime}, true},
		{Cmp{Field: "date", Op: OpLT, Value: baseTime}, false},
		{In{Field: "hilbertIndex", Values: []any{int64(1), int64(55)}}, true},
		{In{Field: "hilbertIndex", Values: []any{int64(1), int64(2)}}, false},
		{In{Field: "missing", Values: []any{int64(1)}}, false},
		{GeoWithin{Field: "location", Rect: geo.NewRect(23, 37, 24, 38)}, true},
		{GeoWithin{Field: "location", Rect: geo.NewRect(0, 0, 1, 1)}, false},
		{GeoWithin{Field: "vehicle", Rect: geo.NewRect(0, 0, 1, 1)}, false},
		{NewAnd(
			Cmp{Field: "hilbertIndex", Op: OpEQ, Value: int64(55)},
			GeoWithin{Field: "location", Rect: geo.NewRect(23, 37, 24, 38)},
		), true},
		{NewAnd(), true},
		{NewOr(
			Cmp{Field: "hilbertIndex", Op: OpEQ, Value: int64(1)},
			Cmp{Field: "hilbertIndex", Op: OpEQ, Value: int64(55)},
		), true},
		{NewOr(), false},
		{TimeRangeFilter("date", baseTime, baseTime.Add(24*time.Hour)), true},
		{TimeRangeFilter("date", baseTime.Add(4*time.Hour), baseTime.Add(5*time.Hour)), false},
	}
	for i, tc := range cases {
		if got := tc.f.Matches(doc); got != tc.want {
			t.Errorf("case %d (%s): Matches = %v, want %v", i, tc.f, got, tc.want)
		}
	}
}

func TestNewAndFlattens(t *testing.T) {
	inner := NewAnd(Cmp{Field: "a", Op: OpEQ, Value: int64(1)})
	outer := NewAnd(inner, Cmp{Field: "b", Op: OpEQ, Value: int64(2)})
	if len(outer.Children) != 2 {
		t.Fatalf("flattened children = %d", len(outer.Children))
	}
}

func TestIntervalAlgebra(t *testing.T) {
	iv, strict := intervalFromCmp(Cmp{Op: OpGTE, Value: int64(5)})
	if iv.Empty() || !iv.LoIncl {
		t.Fatalf("gte interval: %v", iv)
	}
	if !strict {
		t.Fatal("numeric range not bracketed")
	}
	if _, strict := intervalFromCmp(Cmp{Op: OpGT, Value: "abc"}); strict {
		t.Fatal("string range claimed bracketed")
	}
	if !PointInterval(int64(3)).IsPoint() {
		t.Fatal("point interval not a point")
	}
	if !(ValueInterval{Lo: int64(5), Hi: int64(3), LoIncl: true, HiIncl: true}).Empty() {
		t.Fatal("inverted interval not empty")
	}
	if !(ValueInterval{Lo: int64(5), Hi: int64(5), LoIncl: true}).Empty() {
		t.Fatal("half-open point not empty")
	}
	// Merge of touching intervals.
	merged := normalizeIntervals([]ValueInterval{
		{Lo: int64(1), Hi: int64(3), LoIncl: true, HiIncl: true},
		{Lo: int64(3), Hi: int64(5), LoIncl: true, HiIncl: true},
		{Lo: int64(9), Hi: int64(9), LoIncl: true, HiIncl: true},
	})
	if len(merged) != 2 || bson.Compare(merged[0].Hi, int64(5)) != 0 {
		t.Fatalf("merged = %v", merged)
	}
	// Intersection.
	got := intersectSets(
		[]ValueInterval{{Lo: int64(1), Hi: int64(10), LoIncl: true, HiIncl: true}},
		[]ValueInterval{
			{Lo: int64(0), Hi: int64(2), LoIncl: true, HiIncl: true},
			{Lo: int64(8), Hi: int64(20), LoIncl: true, HiIncl: true},
		},
	)
	if len(got) != 2 {
		t.Fatalf("intersection = %v", got)
	}
	if bson.Compare(got[0].Lo, int64(1)) != 0 || bson.Compare(got[1].Hi, int64(10)) != 0 {
		t.Fatalf("intersection bounds = %v", got)
	}
}

func TestExtractBoundsHilbertShape(t *testing.T) {
	// The paper's Hilbert query: geoWithin AND date range AND
	// ($or of hilbert ranges + $in of single cells).
	f := NewAnd(
		GeoWithin{Field: "location", Rect: geo.NewRect(23.6, 38.0, 24.0, 38.3)},
		TimeRangeFilter("date", baseTime, baseTime.Add(time.Hour)),
		NewOr(
			NewAnd(
				Cmp{Field: "hilbertIndex", Op: OpGTE, Value: int64(100)},
				Cmp{Field: "hilbertIndex", Op: OpLTE, Value: int64(120)},
			),
			NewAnd(
				Cmp{Field: "hilbertIndex", Op: OpGTE, Value: int64(200)},
				Cmp{Field: "hilbertIndex", Op: OpLTE, Value: int64(210)},
			),
			In{Field: "hilbertIndex", Values: []any{int64(300), int64(305)}},
		),
	)
	b := extractBounds(f)
	if b.impossible {
		t.Fatal("bounds impossible")
	}
	hset, _ := b.set("hilbertIndex")
	if len(hset) != 4 {
		t.Fatalf("hilbertIndex intervals = %v", hset)
	}
	dset, _ := b.set("date")
	if len(dset) != 1 || !dset[0].LoIncl || !dset[0].HiIncl {
		t.Fatalf("date intervals = %v", dset)
	}
	if _, ok := b.rect("location"); !ok {
		t.Fatal("geo rect not extracted")
	}
}

func TestExtractBoundsImpossible(t *testing.T) {
	f := NewAnd(
		GeoWithin{Field: "location", Rect: geo.NewRect(0, 0, 1, 1)},
		GeoWithin{Field: "location", Rect: geo.NewRect(50, 50, 51, 51)},
	)
	if !extractBounds(f).impossible {
		t.Fatal("disjoint geo rects not detected")
	}
	f2 := NewAnd(
		Cmp{Field: "v", Op: OpGT, Value: int64(10)},
		Cmp{Field: "v", Op: OpLT, Value: int64(5)},
	)
	if !extractBounds(f2).impossible {
		t.Fatal("contradictory range not detected")
	}
}

func TestExtractBoundsMixedOrIgnored(t *testing.T) {
	f := NewOr(
		Cmp{Field: "a", Op: OpEQ, Value: int64(1)},
		Cmp{Field: "b", Op: OpEQ, Value: int64(2)},
	)
	b := extractBounds(f)
	if len(b.fields) != 0 {
		t.Fatalf("multi-field $or produced bounds: %v", b.fields)
	}
}

func newCollWithIndexes(t testing.TB, n int) *collection.Collection {
	c := buildCollection(t, n)
	mustIndex(t, c, index.Definition{Name: "hd", Fields: []index.Field{
		{Name: "hilbertIndex", Kind: index.Ascending},
		{Name: "date", Kind: index.Ascending},
	}})
	mustIndex(t, c, index.Definition{Name: "st", Fields: []index.Field{
		{Name: "location", Kind: index.Geo2DSphere},
		{Name: "date", Kind: index.Ascending},
	}})
	mustIndex(t, c, index.Definition{Name: "date", Fields: []index.Field{
		{Name: "date", Kind: index.Ascending},
	}})
	return c
}

func mustIndex(t testing.TB, c *collection.Collection, def index.Definition) {
	t.Helper()
	if _, err := c.CreateIndex(def); err != nil {
		t.Fatal(err)
	}
}

// referenceCount evaluates the filter by full scan.
func referenceCount(t testing.TB, c *collection.Collection, f Filter) int {
	t.Helper()
	res := ExecutePlan(c, &Plan{Filter: f})
	return res.Stats.NReturned
}

func TestExecuteMatchesReference(t *testing.T) {
	c := newCollWithIndexes(t, 3000)
	queries := []Filter{
		NewAnd(
			GeoWithin{Field: "location", Rect: geo.NewRect(23.6, 37.8, 23.9, 38.1)},
			TimeRangeFilter("date", baseTime.Add(24*time.Hour), baseTime.Add(7*24*time.Hour)),
		),
		TimeRangeFilter("date", baseTime, baseTime.Add(12*time.Hour)),
		Cmp{Field: "hilbertIndex", Op: OpGTE, Value: int64(50000)},
		NewAnd(
			Cmp{Field: "hilbertIndex", Op: OpGTE, Value: int64(10000)},
			Cmp{Field: "hilbertIndex", Op: OpLTE, Value: int64(60000)},
			TimeRangeFilter("date", baseTime, baseTime.Add(10*24*time.Hour)),
		),
		In{Field: "hilbertIndex", Values: []any{int64(10010), int64(20020), int64(99999)}},
	}
	for i, f := range queries {
		want := referenceCount(t, c, f)
		res := Execute(c, f, nil)
		if res.Stats.NReturned != want {
			t.Errorf("query %d: returned %d, reference %d (plan %s)",
				i, res.Stats.NReturned, want, res.Stats.IndexUsed)
		}
		if len(res.Docs) != res.Stats.NReturned {
			t.Errorf("query %d: %d docs for NReturned %d", i, len(res.Docs), res.Stats.NReturned)
		}
		for _, d := range res.Docs {
			if !f.Matches(d) {
				t.Errorf("query %d: returned non-matching doc %v", i, d)
			}
		}
	}
}

func TestExecuteUsesIndexNotCollscan(t *testing.T) {
	c := newCollWithIndexes(t, 2000)
	f := NewAnd(
		Cmp{Field: "hilbertIndex", Op: OpGTE, Value: int64(10000)},
		Cmp{Field: "hilbertIndex", Op: OpLTE, Value: int64(10500)},
	)
	res := Execute(c, f, nil)
	if res.Stats.IndexUsed == CollScanName {
		t.Fatal("range on indexed field used a collection scan")
	}
	if res.Stats.DocsExamined >= c.Len() {
		t.Fatalf("examined all %d docs", res.Stats.DocsExamined)
	}
}

func TestExecuteCollscanWhenNoIndexApplies(t *testing.T) {
	c := buildCollection(t, 200)
	f := Cmp{Field: "vehicle", Op: OpEQ, Value: "GRC-B"}
	res := Execute(c, f, nil)
	if res.Stats.IndexUsed != CollScanName {
		t.Fatalf("plan = %s, want COLLSCAN", res.Stats.IndexUsed)
	}
	if res.Stats.DocsExamined != 200 {
		t.Fatalf("collscan examined %d docs", res.Stats.DocsExamined)
	}
	want := referenceCount(t, c, f)
	if res.Stats.NReturned != want {
		t.Fatalf("returned %d, want %d", res.Stats.NReturned, want)
	}
}

func TestGeoIndexPlanCorrectAndSelective(t *testing.T) {
	c := newCollWithIndexes(t, 4000)
	rect := geo.NewRect(23.70, 37.95, 23.75, 38.00)
	f := NewAnd(
		GeoWithin{Field: "location", Rect: rect},
		TimeRangeFilter("date", baseTime, baseTime.Add(30*24*time.Hour)),
	)
	want := referenceCount(t, c, f)
	res := Execute(c, f, nil)
	if res.Stats.NReturned != want {
		t.Fatalf("returned %d, want %d (plan %s)", res.Stats.NReturned, want, res.Stats.IndexUsed)
	}
	if res.Stats.IndexUsed == CollScanName {
		t.Fatal("geo query fell back to collscan")
	}
	if res.Stats.DocsExamined >= c.Len()/2 {
		t.Fatalf("geo plan examined %d of %d docs", res.Stats.DocsExamined, c.Len())
	}
}

func TestPlanTrialsPreferCheaperIndex(t *testing.T) {
	c := newCollWithIndexes(t, 3000)
	// Narrow time window, huge spatial extent: the date index should
	// win the trial, exactly the Table 7 phenomenon.
	f := NewAnd(
		GeoWithin{Field: "location", Rect: testArea},
		TimeRangeFilter("date", baseTime, baseTime.Add(2*time.Hour)),
	)
	res := Execute(c, f, nil)
	if len(res.Trials) < 2 {
		t.Fatalf("expected multiple trials, got %v", res.Trials)
	}
	if res.Stats.IndexUsed != "{date: 1}" {
		t.Fatalf("winner = %s, want the date index (trials: %v)", res.Stats.IndexUsed, res.Trials)
	}
	winners := 0
	for _, tr := range res.Trials {
		if tr.Winner {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("%d winners in %v", winners, res.Trials)
	}
}

func TestImpossibleFilterReturnsEmptyFast(t *testing.T) {
	c := newCollWithIndexes(t, 500)
	f := NewAnd(
		Cmp{Field: "hilbertIndex", Op: OpGT, Value: int64(100)},
		Cmp{Field: "hilbertIndex", Op: OpLT, Value: int64(50)},
	)
	res := Execute(c, f, nil)
	if res.Stats.NReturned != 0 {
		t.Fatalf("impossible filter returned %d docs", res.Stats.NReturned)
	}
	if res.Stats.DocsExamined != 0 {
		t.Fatalf("impossible filter examined %d docs", res.Stats.DocsExamined)
	}
}

func TestStatsAdd(t *testing.T) {
	a := ExecStats{KeysExamined: 1, DocsExamined: 2, NReturned: 3, Duration: 5}
	a.Add(ExecStats{KeysExamined: 10, DocsExamined: 20, NReturned: 30, Duration: 3})
	if a.KeysExamined != 11 || a.DocsExamined != 22 || a.NReturned != 33 {
		t.Fatalf("Add = %+v", a)
	}
	if a.Duration != 5 {
		t.Fatalf("Duration should be max, got %v", a.Duration)
	}
}
