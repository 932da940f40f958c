package bson

import (
	"testing"
	"time"
)

func benchDoc() *Document {
	gen := NewObjectIDGen(1)
	return FromD(D{
		{Key: "_id", Value: gen.New(time.Unix(1538383200, 0))},
		{Key: "location", Value: FromD(D{
			{Key: "type", Value: "Point"},
			{Key: "coordinates", Value: A{23.727539, 37.983810}},
		})},
		{Key: "date", Value: time.Unix(1538383200, 0).UTC()},
		{Key: "hilbertIndex", Value: int64(36854767)},
		{Key: "vehicleId", Value: int64(17)},
		{Key: "speedKmh", Value: 52.5},
		{Key: "roadType", Value: "primary"},
		{Key: "engineOn", Value: true},
	})
}

func BenchmarkMarshal(b *testing.B) {
	doc := benchDoc()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Marshal(doc)
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	raw := Marshal(benchDoc())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRawLookup measures the executor's hot path: resolving a
// field from the encoded form without decoding the document.
func BenchmarkRawLookup(b *testing.B) {
	raw := Raw(Marshal(benchDoc()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := raw.Lookup("hilbertIndex"); !ok {
			b.Fatal("missing field")
		}
	}
}

func BenchmarkRawLookupNested(b *testing.B) {
	raw := Raw(Marshal(benchDoc()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := raw.Lookup("location.coordinates"); !ok {
			b.Fatal("missing field")
		}
	}
}

func BenchmarkCompare(b *testing.B) {
	x, y := benchDoc(), benchDoc()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Compare(x, y)
	}
}

// BenchmarkRawGeoPoint measures the refine step's field read: finding
// the location and reading its two coordinates from the encoded form.
func BenchmarkRawGeoPoint(b *testing.B) {
	raw := Raw(Marshal(benchDoc()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v, _ := raw.LookupRaw("location")
		if _, _, ok := v.GeoPoint(); !ok {
			b.Fatal("not a point")
		}
	}
}
