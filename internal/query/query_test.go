package query

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/collection"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/keyenc"
	"repro/internal/sfc"
	"repro/internal/sthash"
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

// Specs over the test documents: anyWhere and the window anyFrom to
// anyTo leave place and time open.
var (
	anyWhere = geo.World
	anyFrom  = baseTime.AddDate(-1, 0, 0)
	anyTo    = baseTime.AddDate(1, 0, 0)
)

// rectWindow selects the documents in the rectangle dated from..to.
func rectWindow(r geo.Rect, from, to time.Time) *Spec { return &Spec{Rect: r, From: from, To: to} }

// window selects the documents dated from..to, any place.
func window(from, to time.Time) *Spec { return rectWindow(anyWhere, from, to) }

// rectSpec selects the documents in the rectangle, any time.
func rectSpec(r geo.Rect) *Spec { return rectWindow(r, anyFrom, anyTo) }

// cells selects the documents whose hilbertIndex lies in one of the
// ranges, any place, any time; without ranges it is an empty cover.
func cells(ranges ...sfc.Range) *Spec {
	return &Spec{Rect: anyWhere, From: anyFrom, To: anyTo, Key: HilbertKey, Cells: ranges}
}

// cellRange is cells of the one range [lo, hi], or of none when it is
// empty.
func cellRange(lo, hi int64) *Spec {
	if hi < lo {
		return cells()
	}
	return cells(sfc.Range{Lo: uint64(lo), Hi: uint64(hi)})
}

// cellWindow is cellRange within the window from..to.
func cellWindow(lo, hi int64, from, to time.Time) *Spec {
	s := cellRange(lo, hi)
	s.From, s.To = from, to
	return s
}

func TestFilterMatching(t *testing.T) {
	at := baseTime.Add(3 * time.Hour)
	doc := stDoc(1, geo.Point{Lon: 23.7, Lat: 37.9}, at, 55)
	sth := &Spec{Rect: anyWhere, From: anyFrom, To: anyTo, Key: STHashKey, Strings: []sthash.Range{{Lo: "a", Hi: "z"}}}
	cases := []struct {
		f    Filter
		want bool
	}{
		{cellRange(55, 55), true},
		{cellRange(56, 56), false},
		{cellRange(54, 1<<40), true},
		{cellRange(55, 60), true},
		{cellRange(0, 54), false},
		{cells(sfc.Range{Lo: 1, Hi: 1}, sfc.Range{Lo: 55, Hi: 55}), true},
		{cells(sfc.Range{Lo: 1, Hi: 1}, sfc.Range{Lo: 2, Hi: 2}), false},
		{cells(), false},
		// No stHash at all.
		{sth, false},
		{rectSpec(geo.NewRect(23, 37, 24, 38)), true},
		{rectSpec(geo.NewRect(0, 0, 1, 1)), false},
		{window(baseTime, baseTime.Add(24*time.Hour)), true},
		{window(at, at), true},
		{window(baseTime.Add(4*time.Hour), baseTime.Add(5*time.Hour)), false},
		{cellWindow(55, 55, baseTime, at), true},
		{cellWindow(55, 55, baseTime, at.Add(-time.Millisecond)), false},
		{&Spec{Rect: geo.NewRect(23, 37, 24, 38), From: at, To: at, Key: HilbertKey, Cells: []sfc.Range{{Lo: 55, Hi: 55}}}, true},
	}
	for i, tc := range cases {
		raw := bson.Raw(bson.Marshal(doc))
		for _, d := range []bson.Doc{doc, raw, &raw} {
			if got := tc.f.Matches(d); got != tc.want {
				t.Errorf("case %d (%s) on a %T: Matches = %v, want %v", i, tc.f, d, got, tc.want)
			}
		}
	}
	// Type bracketing: a point, a date, a cell or an ST-Hash of the
	// wrong kind is outside every rectangle, window and cover.
	for _, tc := range []struct {
		field string
		value any
		f     *Spec
	}{
		{"location", "23.7,37.9", rectSpec(anyWhere)},
		{"date", at.UnixMilli(), window(anyFrom, anyTo)},
		{"hilbertIndex", "55", cellRange(0, 1<<40)},
		{"stHash", int64(5), sth},
	} {
		d := doc.Clone()
		d.Set(tc.field, tc.value)
		raw := bson.Raw(bson.Marshal(d))
		if tc.f.Matches(d) || tc.f.Matches(raw) {
			t.Errorf("%s matches a %s of %T", tc.f, tc.field, tc.value)
		}
	}
}

// TestNewAndFlattens: an empty cover renders as the impossible pair
// flattened into the spec's one conjunction, as the store always
// printed it, never as a nested $and.
func TestNewAndFlattens(t *testing.T) {
	for _, tc := range []struct {
		s    *Spec
		pair string
	}{
		{cells(), `{hilbertIndex: {$gt: 0}}, {hilbertIndex: {$lt: 0}}]}`},
		{&Spec{Rect: anyWhere, From: anyFrom, To: anyTo, Key: STHashKey}, `{stHash: {$gt: "1"}}, {stHash: {$lt: "0"}}]}`},
	} {
		s := tc.s.String()
		if strings.Count(s, "$and") != 1 || !strings.HasSuffix(s, ", "+tc.pair) {
			t.Fatalf("empty cover renders %s, want one $and ending in %s", s, tc.pair)
		}
	}
}

// TestIntervalAlgebra: a spec's bounds are closed intervals read from
// its fields — the window on the date, one per range on the key field
// — encoded as the index encodes the values; a 2dsphere field's are the
// geohash cells covering the rectangle, ascending and disjoint.
func TestIntervalAlgebra(t *testing.T) {
	s := cellWindow(5, 9, baseTime, baseTime.Add(time.Hour))
	s.Cells = append(s.Cells, sfc.Range{Lo: 12, Hi: 12})
	var keys keyenc.Buf
	for i, want := range []struct {
		lo, hi any
		point  bool
	}{{int64(5), int64(9), false}, {int64(12), int64(12), true}} {
		lo, hi, point := s.AppendInterval(&keys, nil, FieldHilbert, i)
		if !bytes.Equal(lo, keyenc.Encode(want.lo)) || !bytes.Equal(hi, keyenc.Encode(want.hi)) || point != want.point {
			t.Fatalf("cell interval %d: %x..%x (point %v)", i, lo, hi, point)
		}
	}
	lo, hi, point := s.AppendInterval(&keys, []byte{7}, FieldDate, 0)
	if !bytes.Equal(lo, append([]byte{7}, keyenc.Encode(baseTime)...)) || !bytes.Equal(hi, append([]byte{7}, keyenc.Encode(baseTime.Add(time.Hour))...)) || point {
		t.Fatalf("date interval under a prefix: %x..%x (point %v)", lo, hi, point)
	}
	if _, _, point := window(baseTime, baseTime).AppendInterval(&keys, nil, FieldDate, 0); !point {
		t.Fatal("a one-instant window is not a point")
	}
	ix := newCollWithIndexes(t, 10).Index("st")
	fs := fieldSetOf(ix, ix.Def().Fields[0], rectSpec(geo.NewRect(23.6, 37.8, 24.1, 38.2)))
	if !fs.ok || fs.n == 0 {
		t.Fatal("a rectangle constrains no geohash cell")
	}
	for i, r := range fs.cells {
		if r.Hi < r.Lo || i > 0 && r.Lo <= fs.cells[i-1].Hi {
			t.Fatalf("geohash cell range %d: %+v after %+v", i, r, fs.cells[i-1])
		}
	}
}

func TestExtractBoundsHilbertShape(t *testing.T) {
	// The paper's Hilbert query: geoWithin AND date range AND
	// ($or of hilbert ranges + $in of single cells).
	s := &Spec{Rect: geo.NewRect(23.6, 38.0, 24.0, 38.3), From: baseTime, To: baseTime.Add(time.Hour), Key: HilbertKey,
		Cells: []sfc.Range{{Lo: 100, Hi: 120}, {Lo: 200, Hi: 210}, {Lo: 300, Hi: 300}, {Lo: 305, Hi: 305}}}
	if s.Impossible() {
		t.Fatal("bounds impossible")
	}
	if n := s.Intervals("hilbertIndex"); n != 4 {
		t.Fatalf("hilbertIndex intervals = %d", n)
	}
	if n := s.Intervals("date"); n != 1 {
		t.Fatalf("date intervals = %d", n)
	}
	// The rectangle constrains only a 2dsphere field (fieldSetOf).
	if n := s.Intervals("location"); n != 0 {
		t.Fatalf("location intervals = %d", n)
	}
	if !strings.Contains(s.String(), `{hilbertIndex: {$in: [300, 305]}}`) {
		t.Fatalf("single cells not gathered into one $in: %s", s)
	}
}

func TestExtractBoundsImpossible(t *testing.T) {
	for _, s := range []*Spec{
		window(baseTime.Add(time.Millisecond), baseTime),
		cells(),
		cellRange(10, 5),
		{Rect: anyWhere, From: anyFrom, To: anyTo, Key: STHashKey},
	} {
		if !s.Impossible() {
			t.Errorf("%s not impossible", s)
		}
	}
	for _, s := range []*Spec{window(baseTime, baseTime), cellRange(5, 5), rectSpec(geo.NewRect(50, 50, 50, 50))} {
		if s.Impossible() {
			t.Errorf("%s impossible", s)
		}
	}
}

// TestExtractBoundsMixedOrIgnored: a spec constrains the date and its
// key field only; an index led by any other field is unusable, and a
// key field of the other approach is unconstrained.
func TestExtractBoundsMixedOrIgnored(t *testing.T) {
	for field, want := range map[string]int{"a": 0, "vehicle": 0, "_id": 0, "stHash": 0, "hilbertIndex": 2, "date": 1, "": 0} {
		if got := cells(sfc.Range{Lo: 1, Hi: 1}, sfc.Range{Lo: 3, Hi: 4}).Intervals(field); got != want {
			t.Errorf("%q: %d intervals, want %d", field, got, want)
		}
	}
	if n := window(anyFrom, anyTo).Intervals("hilbertIndex"); n != 0 {
		t.Fatalf("a baseline spec constrains hilbertIndex with %d intervals", n)
	}
	c := buildCollection(t, 50)
	mustIndex(t, c, index.Definition{Name: "v", Fields: []index.Field{{Name: "vehicle", Kind: index.Ascending}}})
	if plans := CandidatePlans(c, cellRange(0, 1<<40)); len(plans) != 1 || plans[0].Index != nil {
		t.Fatalf("an index on an unconstrained field planned %v", plans[0].Name())
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
		rectWindow(geo.NewRect(23.6, 37.8, 23.9, 38.1), baseTime.Add(24*time.Hour), baseTime.Add(7*24*time.Hour)),
		window(baseTime, baseTime.Add(12*time.Hour)),
		cellRange(50000, 1<<40),
		cellWindow(10000, 60000, baseTime, baseTime.Add(10*24*time.Hour)),
		cells(sfc.Range{Lo: 10010, Hi: 10010}, sfc.Range{Lo: 20020, Hi: 20020}, sfc.Range{Lo: 99999, Hi: 99999}),
		&Spec{Rect: geo.NewRect(23.6, 37.8, 23.9, 38.1), From: baseTime, To: baseTime.Add(10 * 24 * time.Hour), Key: HilbertKey,
			Cells: []sfc.Range{{Lo: 10000, Hi: 30000}, {Lo: 40000, Hi: 40050}}},
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
	f := cellRange(10000, 10500)
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
	f := window(baseTime, baseTime.Add(24*time.Hour))
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
	f := rectWindow(rect, baseTime, baseTime.Add(30*24*time.Hour))
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
	f := rectWindow(testArea, baseTime, baseTime.Add(2*time.Hour))
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
	f := cellRange(100, 50)
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
