package geo

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bson"
)

func TestRectContains(t *testing.T) {
	r := NewRect(23.757495, 37.987295, 23.766958, 37.992997) // paper's small rect
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{23.76, 37.99}, true},
		{Point{23.757495, 37.987295}, true}, // inclusive borders
		{Point{23.766958, 37.992997}, true},
		{Point{23.75, 37.99}, false},
		{Point{23.76, 38.1}, false},
	}
	for _, tc := range cases {
		if got := r.Contains(tc.p); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestNewRectNormalisesCorners(t *testing.T) {
	r := NewRect(10, 20, 5, 15)
	if r.Min.Lon != 5 || r.Min.Lat != 15 || r.Max.Lon != 10 || r.Max.Lat != 20 {
		t.Fatalf("NewRect did not normalise: %v", r)
	}
}

func TestRectIntersection(t *testing.T) {
	a := NewRect(0, 0, 10, 10)
	b := NewRect(5, 5, 15, 15)
	got, ok := a.Intersection(b)
	if !ok || got.Min.Lon != 5 || got.Max.Lon != 10 {
		t.Fatalf("Intersection = %v, %v", got, ok)
	}
	if _, ok := a.Intersection(NewRect(20, 20, 30, 30)); ok {
		t.Fatal("disjoint rectangles intersect")
	}
	// Touching edges intersect (closed rectangles).
	if !a.Intersects(NewRect(10, 0, 20, 10)) {
		t.Fatal("touching rectangles do not intersect")
	}
}

func TestIntersectsSymmetricProperty(t *testing.T) {
	f := func(a0, a1, b0, b1, c0, c1, d0, d1 uint16) bool {
		r1 := NewRect(float64(a0%360)-180, float64(a1%180)-90, float64(b0%360)-180, float64(b1%180)-90)
		r2 := NewRect(float64(c0%360)-180, float64(c1%180)-90, float64(d0%360)-180, float64(d1%180)-90)
		if r1.Intersects(r2) != r2.Intersects(r1) {
			return false
		}
		if inter, ok := r1.Intersection(r2); ok {
			return r1.ContainsRect(inter) && r2.ContainsRect(inter)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPaperQueryRectAreas(t *testing.T) {
	small := NewRect(23.757495, 37.987295, 23.766958, 37.992997)
	big := NewRect(23.606039, 38.023982, 24.032754, 38.353926)
	ratio := big.AreaKm2() / small.AreaKm2()
	// The paper states the big rectangle is ~2,603x the small one.
	if ratio < 2300 || ratio > 2900 {
		t.Fatalf("big/small area ratio = %.0f, want ~2603", ratio)
	}
	// The small rect is ~0.52 km2 (the paper's "526 km2" is a unit
	// slip: it is 526,000 m2).
	if a := small.AreaKm2(); a < 0.4 || a > 0.7 {
		t.Fatalf("small rect area = %f km2", a)
	}
}

func TestGeoJSONPointRoundTrip(t *testing.T) {
	p := Point{Lon: 23.727539, Lat: 37.983810}
	doc := GeoJSONPoint(p)
	if typ := doc.Get("type"); typ != "Point" {
		t.Fatalf("type = %v", typ)
	}
	back, ok := PointFromGeoJSON(doc)
	if !ok || back != p {
		t.Fatalf("round trip = %v, %v", back, ok)
	}
	if _, ok := PointFromGeoJSON("not a doc"); ok {
		t.Fatal("accepted non-document")
	}
	if _, ok := PointFromGeoJSON(bson.FromD(bson.D{{Key: "type", Value: "Polygon"}})); ok {
		t.Fatal("accepted wrong type")
	}
}

func TestGeoJSONPolygonRoundTrip(t *testing.T) {
	r := NewRect(23.606039, 38.023982, 24.032754, 38.353926)
	doc := GeoJSONPolygonFromRect(r)
	back, ok := RectFromGeoJSONPolygon(doc)
	if !ok {
		t.Fatal("failed to parse polygon")
	}
	if math.Abs(back.Min.Lon-r.Min.Lon) > 1e-12 || math.Abs(back.Max.Lat-r.Max.Lat) > 1e-12 {
		t.Fatalf("round trip = %v, want %v", back, r)
	}
}

func TestGeoJSONPointSurvivesMarshal(t *testing.T) {
	p := Point{Lon: -1.25, Lat: 51.75}
	doc := GeoJSONPoint(p)
	raw := bson.Marshal(doc)
	decoded, err := bson.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	back, ok := PointFromGeoJSON(decoded)
	if !ok || back != p {
		t.Fatalf("after marshal round trip: %v, %v", back, ok)
	}
}

func TestValidity(t *testing.T) {
	if !World.Valid() {
		t.Fatal("World invalid")
	}
	if (Point{Lon: 181, Lat: 0}).Valid() {
		t.Fatal("lon 181 valid")
	}
	if (Point{Lon: 0, Lat: -91}).Valid() {
		t.Fatal("lat -91 valid")
	}
	if (Rect{Min: Point{Lon: 5}, Max: Point{Lon: 1}}).Valid() {
		t.Fatal("inverted rect valid")
	}
}

func TestCenterWidthHeight(t *testing.T) {
	r := NewRect(0, 0, 10, 20)
	if c := r.Center(); c.Lon != 5 || c.Lat != 10 {
		t.Fatalf("center = %v", c)
	}
	if r.Width() != 10 || r.Height() != 20 {
		t.Fatalf("dims = %v x %v", r.Width(), r.Height())
	}
}
