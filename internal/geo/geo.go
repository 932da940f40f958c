// Package geo provides the planar/geodetic geometry used by the
// store: points, rectangles, GeoJSON conversion and the spatial
// predicates needed for $geoWithin evaluation.
package geo

import (
	"fmt"
	"math"

	"repro/internal/bson"
)

// World is the full longitude/latitude domain. Space-filling curves
// with a "whole globe" extent (the paper's hil method) cover this
// rectangle; the restricted variant (hil*) covers the data set's MBR.
var World = Rect{Min: Point{Lon: -180, Lat: -90}, Max: Point{Lon: 180, Lat: 90}}

// Point is a longitude/latitude position in degrees.
type Point struct {
	Lon float64
	Lat float64
}

// String renders the point as "(lon, lat)".
func (p Point) String() string { return fmt.Sprintf("(%.6f, %.6f)", p.Lon, p.Lat) }

// Valid reports whether the point lies within the lon/lat domain.
func (p Point) Valid() bool {
	return p.Lon >= -180 && p.Lon <= 180 && p.Lat >= -90 && p.Lat <= 90
}

// Rect is an axis-aligned rectangle given by its lower-left and
// upper-right corners (the representation the paper uses for both the
// data MBRs and the query constraints).
type Rect struct {
	Min Point
	Max Point
}

// NewRect builds a rectangle from the two corner coordinates,
// normalising their order.
func NewRect(lon1, lat1, lon2, lat2 float64) Rect {
	return Rect{
		Min: Point{Lon: math.Min(lon1, lon2), Lat: math.Min(lat1, lat2)},
		Max: Point{Lon: math.Max(lon1, lon2), Lat: math.Max(lat1, lat2)},
	}
}

// String renders the rectangle as "[min, max]".
func (r Rect) String() string { return fmt.Sprintf("[%s, %s]", r.Min, r.Max) }

// Valid reports whether both corners are valid and ordered.
func (r Rect) Valid() bool {
	return r.Min.Valid() && r.Max.Valid() &&
		r.Min.Lon <= r.Max.Lon && r.Min.Lat <= r.Max.Lat
}

// Contains reports whether p lies inside the rectangle (borders
// inclusive, matching the server's $geoWithin on a box).
func (r Rect) Contains(p Point) bool {
	return p.Lon >= r.Min.Lon && p.Lon <= r.Max.Lon &&
		p.Lat >= r.Min.Lat && p.Lat <= r.Max.Lat
}

// Intersects reports whether the two rectangles share any point.
func (r Rect) Intersects(o Rect) bool {
	return r.Min.Lon <= o.Max.Lon && o.Min.Lon <= r.Max.Lon &&
		r.Min.Lat <= o.Max.Lat && o.Min.Lat <= r.Max.Lat
}

// ContainsRect reports whether o lies fully inside r.
func (r Rect) ContainsRect(o Rect) bool {
	return o.Min.Lon >= r.Min.Lon && o.Max.Lon <= r.Max.Lon &&
		o.Min.Lat >= r.Min.Lat && o.Max.Lat <= r.Max.Lat
}

// Intersection returns the overlap of the two rectangles; ok is false
// when they are disjoint.
func (r Rect) Intersection(o Rect) (Rect, bool) {
	out := Rect{
		Min: Point{Lon: math.Max(r.Min.Lon, o.Min.Lon), Lat: math.Max(r.Min.Lat, o.Min.Lat)},
		Max: Point{Lon: math.Min(r.Max.Lon, o.Max.Lon), Lat: math.Min(r.Max.Lat, o.Max.Lat)},
	}
	if out.Min.Lon > out.Max.Lon || out.Min.Lat > out.Max.Lat {
		return Rect{}, false
	}
	return out, true
}

// Center returns the rectangle's midpoint.
func (r Rect) Center() Point {
	return Point{Lon: (r.Min.Lon + r.Max.Lon) / 2, Lat: (r.Min.Lat + r.Max.Lat) / 2}
}

// Width and Height return the side lengths in degrees.
func (r Rect) Width() float64  { return r.Max.Lon - r.Min.Lon }
func (r Rect) Height() float64 { return r.Max.Lat - r.Min.Lat }

// earthRadiusKm is the mean Earth radius.
const earthRadiusKm = 6371.0088

// AreaKm2 returns the geodesic area of the rectangle on the sphere in
// square kilometres.
func (r Rect) AreaKm2() float64 {
	lonSpan := (r.Max.Lon - r.Min.Lon) * math.Pi / 180
	sinLat := math.Sin(r.Max.Lat*math.Pi/180) - math.Sin(r.Min.Lat*math.Pi/180)
	return math.Abs(earthRadiusKm * earthRadiusKm * lonSpan * sinLat)
}

// GeoJSONPoint builds the embedded document the store keeps in the
// location field:
//
//	{"type": "Point", "coordinates": [lon, lat]}
func GeoJSONPoint(p Point) *bson.Document {
	return bson.FromD(bson.D{
		{Key: "type", Value: "Point"},
		{Key: "coordinates", Value: bson.A{p.Lon, p.Lat}},
	})
}

// PointFromGeoJSON extracts the point from a GeoJSON Point document.
func PointFromGeoJSON(v any) (Point, bool) {
	doc, ok := v.(*bson.Document)
	if !ok {
		return Point{}, false
	}
	if typ, _ := doc.Get("type").(string); typ != "Point" {
		return Point{}, false
	}
	coords, ok := doc.Get("coordinates").(bson.A)
	if !ok || len(coords) != 2 {
		return Point{}, false
	}
	lon, ok1 := bson.NumericValue(coords[0])
	lat, ok2 := bson.NumericValue(coords[1])
	if !ok1 || !ok2 {
		return Point{}, false
	}
	return Point{Lon: lon, Lat: lat}, true
}

// GeoJSONPolygonFromRect builds a GeoJSON Polygon document covering
// the rectangle, in the form the paper's example queries use for the
// $geometry operand of $geoWithin.
func GeoJSONPolygonFromRect(r Rect) *bson.Document {
	ring := bson.A{
		bson.A{r.Min.Lon, r.Min.Lat},
		bson.A{r.Max.Lon, r.Min.Lat},
		bson.A{r.Max.Lon, r.Max.Lat},
		bson.A{r.Min.Lon, r.Max.Lat},
		bson.A{r.Min.Lon, r.Min.Lat},
	}
	return bson.FromD(bson.D{
		{Key: "type", Value: "Polygon"},
		{Key: "coordinates", Value: bson.A{ring}},
	})
}

// RectFromGeoJSONPolygon recovers the bounding rectangle of a GeoJSON
// Polygon document (the store only supports axis-aligned rings, which
// is what every query in the paper uses).
func RectFromGeoJSONPolygon(v any) (Rect, bool) {
	doc, ok := v.(*bson.Document)
	if !ok {
		return Rect{}, false
	}
	if typ, _ := doc.Get("type").(string); typ != "Polygon" {
		return Rect{}, false
	}
	rings, ok := doc.Get("coordinates").(bson.A)
	if !ok || len(rings) == 0 {
		return Rect{}, false
	}
	ring, ok := rings[0].(bson.A)
	if !ok || len(ring) < 4 {
		return Rect{}, false
	}
	first := true
	var r Rect
	for _, corner := range ring {
		pair, ok := corner.(bson.A)
		if !ok || len(pair) != 2 {
			return Rect{}, false
		}
		lon, ok1 := bson.NumericValue(pair[0])
		lat, ok2 := bson.NumericValue(pair[1])
		if !ok1 || !ok2 {
			return Rect{}, false
		}
		if first {
			r = Rect{Min: Point{lon, lat}, Max: Point{lon, lat}}
			first = false
			continue
		}
		r.Min.Lon = math.Min(r.Min.Lon, lon)
		r.Min.Lat = math.Min(r.Min.Lat, lat)
		r.Max.Lon = math.Max(r.Max.Lon, lon)
		r.Max.Lat = math.Max(r.Max.Lat, lat)
	}
	return r, true
}
