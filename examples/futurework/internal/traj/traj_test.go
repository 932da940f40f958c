package traj

import (
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geo"
)

var t0 = time.Date(2018, 7, 1, 8, 0, 0, 0, time.UTC)

// rec builds an input record for vehicle vid.
func rec(vid int64, lon, lat float64, at time.Time) core.Record {
	return core.Record{
		Point:  geo.Point{Lon: lon, Lat: lat},
		Time:   at,
		Fields: bson.D{{Key: "vehicleId", Value: vid}},
	}
}

func TestBuildSegmentsSplitsOnGapAndVehicle(t *testing.T) {
	recs := []core.Record{
		rec(1, 23.70, 37.90, t0),
		rec(1, 23.71, 37.91, t0.Add(30*time.Second)),
		rec(1, 23.72, 37.92, t0.Add(time.Minute)),
		// 2-hour gap: new trip.
		rec(1, 23.80, 37.95, t0.Add(2*time.Hour)),
		rec(1, 23.81, 37.96, t0.Add(2*time.Hour+30*time.Second)),
		// Another vehicle, interleaved in time.
		rec(2, 24.10, 38.10, t0.Add(10*time.Second)),
		rec(2, 24.11, 38.11, t0.Add(40*time.Second)),
		// A record without vehicleId is skipped.
		{Point: geo.Point{Lon: 25, Lat: 39}, Time: t0},
	}
	segs := BuildSegments(recs, BuilderConfig{})
	if len(segs) != 3 {
		t.Fatalf("got %d segments, want 3", len(segs))
	}
	if segs[0].VehicleID != 1 || len(segs[0].Points) != 3 {
		t.Fatalf("segment 0: %+v", segs[0])
	}
	if segs[1].VehicleID != 1 || len(segs[1].Points) != 2 {
		t.Fatalf("segment 1: %+v", segs[1])
	}
	if segs[2].VehicleID != 2 || len(segs[2].Points) != 2 {
		t.Fatalf("segment 2: %+v", segs[2])
	}
	// MBR covers the trip.
	for _, s := range segs {
		for _, p := range s.Points {
			if !s.MBR.Contains(p) {
				t.Fatalf("MBR %v misses %v", s.MBR, p)
			}
		}
		if s.End.Before(s.Start) {
			t.Fatal("segment time span inverted")
		}
	}
}

func TestBuildSegmentsMaxPoints(t *testing.T) {
	var recs []core.Record
	for i := 0; i < 25; i++ {
		recs = append(recs, rec(1, 23.7+float64(i)/1000, 37.9, t0.Add(time.Duration(i)*time.Minute)))
	}
	segs := BuildSegments(recs, BuilderConfig{MaxPoints: 10})
	if len(segs) != 3 {
		t.Fatalf("got %d segments with MaxPoints=10", len(segs))
	}
}

func TestSegmentDocumentRoundTrip(t *testing.T) {
	segs := BuildSegments([]core.Record{
		rec(7, 23.70, 37.90, t0),
		rec(7, 23.75, 37.95, t0.Add(time.Minute)),
	}, BuilderConfig{})
	if len(segs) != 1 {
		t.Fatalf("segments = %d", len(segs))
	}
	doc := segs[0].Document()
	back, err := SegmentFromDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	if back.VehicleID != 7 || len(back.Points) != 2 {
		t.Fatalf("round trip: %+v", back)
	}
	if back.Points[1] != segs[0].Points[1] || !back.Times[1].Equal(segs[0].Times[1]) {
		t.Fatal("points/times mismatch")
	}
	if back.MBR != segs[0].MBR {
		t.Fatalf("MBR mismatch: %v vs %v", back.MBR, segs[0].MBR)
	}
	// Survives the binary encoding too.
	raw := bson.Marshal(doc)
	back2, err := SegmentFromDocument(bson.Raw(raw))
	if err != nil {
		t.Fatal(err)
	}
	if back2.VehicleID != 7 || len(back2.Points) != 2 {
		t.Fatalf("raw round trip: %+v", back2)
	}
}

func TestStoreQueryFindsPassingTrips(t *testing.T) {
	recs := data.GenerateReal(data.RealConfig{Records: 8000, Vehicles: 16})
	segs := BuildSegments(recs, BuilderConfig{MaxGap: time.Hour})
	if len(segs) < 16 {
		t.Fatalf("only %d segments built", len(segs))
	}
	store, err := OpenStore(StoreConfig{Shards: 4, ChunkMaxBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Load(segs); err != nil {
		t.Fatal(err)
	}
	if store.Len() != len(segs) {
		t.Fatalf("store holds %d of %d segments", store.Len(), len(segs))
	}
	rect := geo.NewRect(23.60, 37.85, 23.95, 38.10) // greater Athens
	from := data.RStart
	to := data.RStart.Add(60 * 24 * time.Hour)
	res, err := store.Query(rect, from, to)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: brute force over the built segments.
	want := 0
	for _, s := range segs {
		if s.HasTraceIn(rect, from, to) {
			want++
		}
	}
	if len(res.Segments) != want {
		t.Fatalf("query returned %d segments, brute force %d", len(res.Segments), want)
	}
	if want == 0 {
		t.Fatal("workload produced no passing trips; test is vacuous")
	}
	if res.Candidates < want {
		t.Fatalf("candidates %d < matches %d", res.Candidates, want)
	}
	if res.Nodes == 0 {
		t.Fatal("no nodes reported")
	}
	// Every returned segment genuinely passes.
	for _, s := range res.Segments {
		if !s.HasTraceIn(rect, from, to) {
			t.Fatalf("returned segment does not pass through the window")
		}
	}
}

func TestStoreQuerySpatialSelectivity(t *testing.T) {
	recs := data.GenerateReal(data.RealConfig{Records: 8000, Vehicles: 16})
	segs := BuildSegments(recs, BuilderConfig{MaxGap: time.Hour})
	store, err := OpenStore(StoreConfig{Shards: 4, ChunkMaxBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Load(segs); err != nil {
		t.Fatal(err)
	}
	from, to := data.RStart, data.RStart.Add(data.RDuration)
	// A rectangle far from any hotspot returns nothing.
	res, err := store.Query(geo.NewRect(27.5, 41.0, 27.8, 41.3), from, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 0 {
		t.Fatalf("empty-region query returned %d segments", len(res.Segments))
	}
	// An empty time window returns nothing either.
	res, err = store.Query(geo.NewRect(23.0, 37.0, 25.0, 39.0),
		data.RStart.Add(-48*time.Hour), data.RStart.Add(-24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 0 {
		t.Fatalf("empty-window query returned %d segments", len(res.Segments))
	}
}

func TestInsertRejectsEmptySegment(t *testing.T) {
	store, err := OpenStore(StoreConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Insert(&Segment{}); err == nil {
		t.Fatal("empty segment accepted")
	}
}

// TestQueryDilationFindsWideSegments plants a long trip whose MBR
// centre lies far outside the query rectangle; the dilated cover must
// still route to it.
func TestQueryDilationFindsWideSegments(t *testing.T) {
	store, err := OpenStore(StoreConfig{Shards: 3, ChunkMaxBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// A trip from Athens to Thessaloniki: centre ~ (23.35, 39.3),
	// far from the Athens query box.
	long := BuildSegments([]core.Record{
		rec(1, 23.76, 37.99, t0),
		rec(1, 23.40, 38.80, t0.Add(2*time.Minute)),
		rec(1, 22.94, 40.64, t0.Add(4*time.Minute)),
	}, BuilderConfig{})
	// Plus some local noise trips elsewhere.
	noise := BuildSegments([]core.Record{
		rec(2, 21.73, 38.24, t0),
		rec(2, 21.74, 38.25, t0.Add(time.Minute)),
		rec(3, 25.14, 35.33, t0),
		rec(3, 25.15, 35.34, t0.Add(time.Minute)),
	}, BuilderConfig{})
	if err := store.Load(append(long, noise...)); err != nil {
		t.Fatal(err)
	}
	res, err := store.Query(geo.NewRect(23.70, 37.95, 23.80, 38.00), t0.Add(-time.Hour), t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 1 || res.Segments[0].VehicleID != 1 {
		t.Fatalf("dilated query returned %d segments", len(res.Segments))
	}
}
