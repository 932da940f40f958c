package bson_test

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/bson"
	"repro/internal/geo"
)

// TestGeoJSONPointEncodesToTheFastPathFrame: RawValue.GeoPoint reads
// the two coordinates in place when the embedded document is byte for
// byte the frame below, and walks it element by element otherwise. Both
// give the same answer, so only this test notices if a change to the
// encoder or to geo.GeoJSONPoint (a reordered member, another numeric
// kind) quietly sends every stored point down the slow path.
func TestGeoJSONPointEncodesToTheFastPathFrame(t *testing.T) {
	for _, p := range []geo.Point{
		{Lon: 23.727539, Lat: 37.983810},
		{Lon: -180, Lat: 90},
		{},
		{Lon: math.Inf(1), Lat: math.NaN()},
	} {
		want := []byte(bson.PointFrame[0])
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(p.Lon))
		want = append(want, bson.PointFrame[1]...)
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(p.Lat))
		want = append(want, bson.PointFrame[2]...)
		doc := bson.Marshal(bson.FromD(bson.D{{Key: "location", Value: geo.GeoJSONPoint(p)}}))
		// The embedded document sits after the outer length, the tag and
		// the NUL-terminated name, before the outer terminator.
		got := doc[4+1+len("location")+1 : len(doc)-1]
		if string(got) != string(want) {
			t.Fatalf("GeoJSONPoint(%v) encodes to\n%x\nthe in-place point read expects\n%x", p, got, want)
		}
		v, ok := bson.Raw(doc).LookupRaw("location")
		if !ok {
			t.Fatal("location not found")
		}
		lon, lat, ok := v.GeoPoint()
		if !ok || math.Float64bits(lon) != math.Float64bits(p.Lon) || math.Float64bits(lat) != math.Float64bits(p.Lat) {
			t.Fatalf("GeoPoint() = %v, %v, %v for %v", lon, lat, ok, p)
		}
	}
}
