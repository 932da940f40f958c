package core

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/sfc"
)

var (
	testExtent = geo.NewRect(23.0, 37.0, 25.0, 39.0)
	testStart  = time.Date(2018, 7, 1, 0, 0, 0, 0, time.UTC)
)

func testRecords(n int) []Record {
	rng := rand.New(rand.NewSource(5))
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Point: geo.Point{
				Lon: testExtent.Min.Lon + rng.Float64()*testExtent.Width(),
				Lat: testExtent.Min.Lat + rng.Float64()*testExtent.Height(),
			},
			Time: testStart.Add(time.Duration(i) * time.Minute),
			Fields: bson.D{
				{Key: "vehicleId", Value: int64(i % 10)},
			},
		}
	}
	return recs
}

func openStore(t testing.TB, a Approach, shards int) *Store {
	t.Helper()
	s, err := Open(Config{
		Approach:         a,
		Shards:           shards,
		ChunkMaxBytes:    8 << 10,
		AutoBalanceEvery: 256,
		DataExtent:       testExtent,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOpenCreatesApproachSpecificLayout(t *testing.T) {
	cases := []struct {
		a            Approach
		wantShardKey string
		wantIndex    string
	}{
		{BslST, "{date: 1}", "{location: 2dsphere, date: 1}"},
		{BslTS, "{date: 1}", "{date: 1, location: 2dsphere}"},
		{Hil, "{hilbertIndex: 1, date: 1}", "{hilbertIndex: 1, date: 1}"},
		{HilStar, "{hilbertIndex: 1, date: 1}", "{hilbertIndex: 1, date: 1}"},
	}
	for _, tc := range cases {
		s := openStore(t, tc.a, 3)
		key, ok := s.Cluster().ShardKeyOf()
		if !ok || key.String() != tc.wantShardKey {
			t.Errorf("%s: shard key = %v, want %s", tc.a, key, tc.wantShardKey)
		}
		found := false
		for _, ix := range s.Cluster().Shards()[0].Coll.Indexes() {
			if ix.Def().String() == tc.wantIndex {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: missing index %s", tc.a, tc.wantIndex)
		}
		if (s.Grid() != nil) != (tc.a == Hil || tc.a == HilStar) {
			t.Errorf("%s: grid presence wrong", tc.a)
		}
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{Approach: HilStar}); err == nil {
		t.Fatal("hil* without DataExtent accepted")
	}
	if _, err := Open(Config{Approach: Approach(99)}); err == nil {
		t.Fatal("unknown approach accepted")
	}
}

func TestApproachNames(t *testing.T) {
	names := []string{"bslST", "bslTS", "hil", "hil*", "sthash"}
	for i, a := range AllApproaches() {
		if a.String() != names[i] {
			t.Errorf("approach %d = %q, want %q", i, a, names[i])
		}
	}
	if len(Approaches()) != 4 {
		t.Fatal("the paper's comparison set must stay at four approaches")
	}
}

// TestParseApproachRoundTrip: every approach's name parses back to it,
// and a name no approach has is refused.
func TestParseApproachRoundTrip(t *testing.T) {
	for _, a := range AllApproaches() {
		if got, ok := ParseApproach(a.String()); !ok || got != a {
			t.Errorf("ParseApproach(%q) = %v, %v; want %v, true", a, got, ok, a)
		}
	}
	if _, ok := ParseApproach("hilbert"); ok {
		t.Error(`ParseApproach("hilbert") accepted an unknown name`)
	}
}

func TestDocumentShape(t *testing.T) {
	rec := Record{
		Point:  geo.Point{Lon: 23.73, Lat: 37.98},
		Time:   testStart,
		Fields: bson.D{{Key: "speedKmh", Value: 52.5}},
	}
	bsl := openStore(t, BslST, 2)
	doc, err := bsl.Document(rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := doc.Lookup(FieldHilbert); ok {
		t.Fatal("baseline document carries hilbertIndex")
	}
	if _, ok := doc.Get(FieldID).(bson.ObjectID); !ok {
		t.Fatal("missing ObjectID _id")
	}
	if p, ok := geo.PointFromGeoJSON(doc.Get(FieldLoc)); !ok || p != rec.Point {
		t.Fatalf("location = %v", doc.Get(FieldLoc))
	}
	hil := openStore(t, Hil, 2)
	doc, err = hil.Document(rec)
	if err != nil {
		t.Fatal(err)
	}
	hv, ok := doc.Lookup(FieldHilbert)
	if !ok {
		t.Fatal("hil document missing hilbertIndex")
	}
	if want := int64(hil.Grid().Encode(rec.Point)); hv != want {
		t.Fatalf("hilbertIndex = %v, want %d", hv, want)
	}
	// The baseline document is smaller (Table 6's observation).
	bslDoc, _ := bsl.Document(rec)
	if bson.RawSize(bslDoc) >= bson.RawSize(doc) {
		t.Fatal("baseline doc not smaller than hil doc")
	}
	if _, err := bsl.Document(Record{Point: geo.Point{Lon: 999}}); err == nil {
		t.Fatal("invalid point accepted")
	}
}

func TestFilterShapes(t *testing.T) {
	q := STQuery{
		Rect: geo.NewRect(23.6, 38.0, 23.7, 38.1),
		From: testStart,
		To:   testStart.Add(time.Hour),
	}
	bsl := openStore(t, BslST, 2)
	f, st, coverTime := bsl.Filter(q)
	if st.Ranges != 0 || coverTime != 0 {
		t.Fatal("baseline filter reported a cover")
	}
	if s := f.String(); !strings.Contains(s, "$geoWithin") || strings.Contains(s, FieldHilbert) {
		t.Fatalf("baseline filter = %s", s)
	}
	hil := openStore(t, Hil, 2)
	f, st, _ = hil.Filter(q)
	if st.Ranges == 0 {
		t.Fatal("hil filter has no cover ranges")
	}
	s := f.String()
	if !strings.Contains(s, "$geoWithin") || !strings.Contains(s, "$or") {
		t.Fatalf("hil filter = %s", s)
	}
	if !strings.Contains(s, FieldHilbert) {
		t.Fatalf("hil filter does not constrain %s: %s", FieldHilbert, s)
	}
}

func TestHilbertConstraintShape(t *testing.T) {
	f := HilbertConstraint([]sfc.Range{{Lo: 5, Hi: 5}, {Lo: 10, Hi: 20}, {Lo: 30, Hi: 30}})
	k, ok := f.(query.KeyRanges)
	if !ok {
		t.Fatalf("constraint = %T", f)
	}
	or, ok := k.Or().(query.Or)
	if !ok {
		t.Fatalf("constraint means %T", k.Or())
	}
	var ins, ranges int
	for _, arm := range or.Children {
		switch arm.(type) {
		case query.In:
			ins++
		case query.And:
			ranges++
		}
	}
	if ins != 1 || ranges != 1 {
		t.Fatalf("constraint arms: %d in, %d ranges (%s)", ins, ranges, f)
	}
	// Empty cover yields an unsatisfiable filter.
	empty := HilbertConstraint(nil)
	probe := bson.FromD(bson.D{{Key: FieldHilbert, Value: int64(0)}})
	if empty.Matches(probe) {
		t.Fatal("empty-cover constraint matched")
	}
}

// TestAllApproachesAgreeOnResults is the core correctness property:
// every approach returns exactly the same documents for the same
// spatio-temporal query.
func TestAllApproachesAgreeOnResults(t *testing.T) {
	recs := testRecords(4000)
	queries := []STQuery{
		{Rect: geo.NewRect(23.4, 37.4, 23.9, 37.9), From: testStart, To: testStart.Add(24 * time.Hour)},
		{Rect: geo.NewRect(23.0, 37.0, 25.0, 39.0), From: testStart, To: testStart.Add(3 * time.Hour)},
		{Rect: geo.NewRect(24.2, 38.2, 24.3, 38.3), From: testStart, To: testStart.Add(40 * 24 * time.Hour)},
		// Disjoint in space.
		{Rect: geo.NewRect(10, 10, 11, 11), From: testStart, To: testStart.Add(time.Hour)},
		// Disjoint in time.
		{Rect: geo.NewRect(23.0, 37.0, 25.0, 39.0), From: testStart.Add(-48 * time.Hour), To: testStart.Add(-24 * time.Hour)},
	}
	var counts [][]int
	for _, a := range AllApproaches() {
		s := openStore(t, a, 4)
		if err := s.Load(recs); err != nil {
			t.Fatal(err)
		}
		var row []int
		for _, q := range queries {
			row = append(row, s.Count(q))
		}
		counts = append(counts, row)
	}
	for qi := range queries {
		for ai := 1; ai < len(counts); ai++ {
			if counts[ai][qi] != counts[0][qi] {
				t.Errorf("query %d: %s returned %d, %s returned %d",
					qi, Approaches()[ai], counts[ai][qi], Approaches()[0], counts[0][qi])
			}
		}
	}
	// Sanity: the first three queries return something.
	for qi := 0; qi < 3; qi++ {
		if counts[0][qi] == 0 {
			t.Errorf("query %d returned nothing", qi)
		}
	}
	// And the disjoint ones nothing.
	for qi := 3; qi < 5; qi++ {
		if counts[0][qi] != 0 {
			t.Errorf("disjoint query %d returned %d", qi, counts[0][qi])
		}
	}
}

func TestBaselineNodesGrowWithTimeWindow(t *testing.T) {
	s := openStore(t, BslST, 4)
	if err := s.Load(testRecords(4000)); err != nil {
		t.Fatal(err)
	}
	rect := geo.NewRect(23.4, 37.4, 23.6, 37.6)
	short := s.Query(STQuery{Rect: rect, From: testStart, To: testStart.Add(time.Hour)})
	long := s.Query(STQuery{Rect: rect, From: testStart, To: testStart.Add(60 * 24 * time.Hour)})
	if short.Stats.Nodes > long.Stats.Nodes {
		t.Fatalf("baseline nodes: short window %d > long window %d",
			short.Stats.Nodes, long.Stats.Nodes)
	}
	if long.Stats.Nodes < 2 {
		t.Fatalf("long window used %d nodes", long.Stats.Nodes)
	}
}

func TestHilNodesScaleWithSpace(t *testing.T) {
	s := openStore(t, Hil, 4)
	if err := s.Load(testRecords(4000)); err != nil {
		t.Fatal(err)
	}
	long := 60 * 24 * time.Hour
	small := s.Query(STQuery{Rect: geo.NewRect(23.4, 37.4, 23.45, 37.45), From: testStart, To: testStart.Add(long)})
	big := s.Query(STQuery{Rect: testExtent, From: testStart, To: testStart.Add(long)})
	if small.Stats.Nodes > big.Stats.Nodes {
		t.Fatalf("hil nodes: small rect %d > big rect %d", small.Stats.Nodes, big.Stats.Nodes)
	}
	if small.Stats.Broadcast {
		t.Fatal("hil spatial query broadcast")
	}
}

// TestSTHashLayoutAndRouting checks the related-work approach: a
// stHash field and shard key exist, temporally selective queries
// route to few nodes, and a spatially selective query over a long
// window produces a cover that grows with the number of days.
func TestSTHashLayoutAndRouting(t *testing.T) {
	s := openStore(t, STHash, 4)
	if err := s.Load(testRecords(4000)); err != nil {
		t.Fatal(err)
	}
	key, ok := s.Cluster().ShardKeyOf()
	if !ok || key.String() != "{stHash: 1}" {
		t.Fatalf("shard key = %v", key)
	}
	// Documents carry the string field.
	res := s.Query(STQuery{Rect: testExtent, From: testStart, To: testStart.Add(time.Hour)})
	if res.Stats.NReturned == 0 {
		t.Fatal("no results")
	}
	if _, ok := res.Docs[0].Lookup(FieldSTHash); !ok {
		t.Fatal("document missing stHash")
	}
	// Short window: few nodes (time-major clustering).
	if res.Stats.Broadcast {
		t.Fatal("sthash short query broadcast")
	}
	// Cover grows with days for a fixed small rectangle.
	smallRect := geo.NewRect(23.4, 37.4, 23.45, 37.45)
	_, st1, _ := s.Filter(STQuery{Rect: smallRect, From: testStart, To: testStart.Add(20 * time.Hour)})
	_, st2, _ := s.Filter(STQuery{Rect: smallRect, From: testStart, To: testStart.Add(40 * 24 * time.Hour)})
	if st2.Ranges < 20*st1.Ranges {
		t.Fatalf("sthash cover did not grow with window: %d -> %d", st1.Ranges, st2.Ranges)
	}
}

func TestConfigureZones(t *testing.T) {
	for _, a := range []Approach{BslST, Hil, STHash} {
		s := openStore(t, a, 4)
		if err := s.Load(testRecords(3000)); err != nil {
			t.Fatal(err)
		}
		before := s.Count(STQuery{Rect: testExtent, From: testStart, To: testStart.Add(60 * 24 * time.Hour)})
		if err := s.ConfigureZones(); err != nil {
			t.Fatalf("%s: ConfigureZones: %v", a, err)
		}
		if got := len(s.Cluster().Zones()); got == 0 {
			t.Fatalf("%s: no zones installed", a)
		}
		after := s.Count(STQuery{Rect: testExtent, From: testStart, To: testStart.Add(60 * 24 * time.Hour)})
		if before != after {
			t.Fatalf("%s: zones changed results %d -> %d", a, before, after)
		}
	}
}

func TestQueryStatsPopulated(t *testing.T) {
	s := openStore(t, Hil, 4)
	if err := s.Load(testRecords(2000)); err != nil {
		t.Fatal(err)
	}
	res := s.Query(STQuery{
		Rect: geo.NewRect(23.2, 37.2, 24.0, 38.0),
		From: testStart, To: testStart.Add(24 * time.Hour),
	})
	st := res.Stats
	if st.Nodes == 0 || st.NReturned == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxKeysExamined == 0 || st.MaxDocsExamined == 0 {
		t.Fatalf("examined counters empty: %+v", st)
	}
	if st.CoverDuration <= 0 {
		t.Fatalf("cover duration = %v", st.CoverDuration)
	}
	if len(st.IndexesUsed) != st.Nodes {
		t.Fatalf("IndexesUsed %v for %d nodes", st.IndexesUsed, st.Nodes)
	}
	for _, ix := range st.IndexesUsed {
		if ix == query.CollScanName {
			t.Fatalf("a shard fell back to collscan: %v", st.IndexesUsed)
		}
	}
	if len(res.Docs) != st.NReturned {
		t.Fatalf("docs %d vs NReturned %d", len(res.Docs), st.NReturned)
	}
}

func TestHilStarUsesFinerCells(t *testing.T) {
	recs := testRecords(1000)
	hil := openStore(t, Hil, 2)
	star := openStore(t, HilStar, 2)
	p := recs[0].Point
	hilCell := hil.Grid().CellRect(hil.Grid().Encode(p))
	starCell := star.Grid().CellRect(star.Grid().Encode(p))
	if starCell.AreaKm2() >= hilCell.AreaKm2() {
		t.Fatalf("hil* cell (%f km2) not finer than hil cell (%f km2)",
			starCell.AreaKm2(), hilCell.AreaKm2())
	}
}

func TestZOrderCurveOption(t *testing.T) {
	z, err := sfc.NewZOrder(DefaultHilbertOrder)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Config{
		Approach:         Hil,
		Shards:           2,
		ChunkMaxBytes:    8 << 10,
		AutoBalanceEvery: 256,
		Curve:            z,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(500)
	if err := s.Load(recs); err != nil {
		t.Fatal(err)
	}
	q := STQuery{Rect: geo.NewRect(23.2, 37.2, 24.0, 38.0), From: testStart, To: testStart.Add(9 * time.Hour)}
	ref := openStore(t, BslST, 2)
	if err := ref.Load(recs); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Count(q), ref.Count(q); got != want {
		t.Fatalf("z-order store returned %d, want %d", got, want)
	}
}

func TestMaxQueryRangesCoalesces(t *testing.T) {
	s, err := Open(Config{
		Approach:         Hil,
		Shards:           2,
		ChunkMaxBytes:    8 << 10,
		AutoBalanceEvery: 256,
		MaxQueryRanges:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(800)
	if err := s.Load(recs); err != nil {
		t.Fatal(err)
	}
	q := STQuery{Rect: geo.NewRect(23.1, 37.1, 24.9, 38.9), From: testStart, To: testStart.Add(14 * 24 * time.Hour)}
	_, st, _ := s.Filter(q)
	if st.Ranges > 4 {
		t.Fatalf("cover has %d ranges despite cap", st.Ranges)
	}
	// Results still correct (over-covering only).
	ref := openStore(t, BslST, 2)
	if err := ref.Load(recs); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Count(q), ref.Count(q); got != want {
		t.Fatalf("capped store returned %d, want %d", got, want)
	}
}

func TestLoadBalancesCluster(t *testing.T) {
	s := openStore(t, Hil, 4)
	if err := s.Load(testRecords(3000)); err != nil {
		t.Fatal(err)
	}
	st := s.Cluster().ClusterStats()
	if st.Docs != 3000 {
		t.Fatalf("cluster docs = %d", st.Docs)
	}
	empty := 0
	for _, ss := range st.PerShard {
		if ss.Docs == 0 {
			empty++
		}
	}
	if empty > 0 {
		t.Fatalf("%d empty shards after load", empty)
	}
}

// TestLoadRefusesBeforeApplying: a record Load cannot encode refuses
// the whole load — on a fresh store (the bulk path), a durable one and
// one already holding documents (the per-slice path) alike. Nothing is
// stored or journaled and no ObjectID is drawn: loading the good
// records afterwards gives the store a fresh load of them gives.
func TestLoadRefusesBeforeApplying(t *testing.T) {
	const bad = 1700
	recs := testRecords(3000)
	good := append(append([]Record(nil), recs[:bad]...), recs[bad+1:]...)
	badRecs := append([]Record(nil), recs...)
	badRecs[bad].Point = geo.Point{Lon: 200, Lat: 0}

	for _, c := range []struct {
		name    string
		durable bool
		prior   int // records loaded before the refused load
	}{
		{name: "fresh"}, {name: "durable", durable: true}, {name: "holding", prior: 500},
	} {
		t.Run(c.name, func(t *testing.T) {
			open := func() *Store {
				cfg := Config{Approach: Hil, Shards: 4, ChunkMaxBytes: 8 << 10, AutoBalanceEvery: 256}
				if c.durable {
					cfg.Dir = t.TempDir()
				}
				s, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				if c.prior > 0 {
					if err := s.Load(good[len(good)-c.prior:]); err != nil {
						t.Fatal(err)
					}
				}
				return s
			}
			s, want := open(), open()
			docs, sum := s.Fingerprint()
			lsn := s.Cluster().LSN()
			err := s.Load(badRecs)
			if err == nil || !strings.Contains(err.Error(), "record 1700:") {
				t.Fatalf("Load: err = %v, want one naming record %d", err, bad)
			}
			if gd, gs := s.Fingerprint(); gd != docs || gs != sum {
				t.Fatalf("the refused load changed the content: %d/%016x, was %d/%016x", gd, gs, docs, sum)
			}
			if got := s.Cluster().LSN(); got != lsn {
				t.Fatalf("the refused load journaled up to lsn %d, was %d", got, lsn)
			}
			if err := s.Load(good); err != nil {
				t.Fatal(err)
			}
			if err := want.Load(good); err != nil {
				t.Fatal(err)
			}
			gd, gs := s.Fingerprint()
			wd, ws := want.Fingerprint()
			if gd != wd || gs != ws {
				t.Fatalf("after the refusal the good records load to %d/%016x, a store that never saw it to %d/%016x",
					gd, gs, wd, ws)
			}
		})
	}
}
