// Package traj adds trajectory (polyline) support on top of the
// point store — the "more complex data types (polylines and
// polygons)" extension the paper leaves as future work.
//
// A trajectory is a time-ordered sequence of GPS traces of one
// vehicle. The builder segments each vehicle's traces into trips
// (splitting on temporal gaps), and the segment store persists every
// trip as ONE document carrying its bounding rectangle, its time
// span, its point list, and the Hilbert value of its MBR centre so
// the segment collection shards and routes spatio-temporally just
// like the point collection. A spatio-temporal segment query routes
// by the Hilbert cover of the query rectangle (dilated by the maximum
// segment radius, so no overlapping segment is missed), then refines
// with exact MBR intersection and per-point containment.
package traj

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/bson"
	"repro/internal/core"
	"repro/internal/geo"
)

// Segment is one trip of one vehicle.
type Segment struct {
	VehicleID int64
	Start     time.Time
	End       time.Time
	Points    []geo.Point
	Times     []time.Time
	MBR       geo.Rect
}

// Duration returns the segment's time span.
func (s *Segment) Duration() time.Duration { return s.End.Sub(s.Start) }

// BuilderConfig controls trip segmentation.
type BuilderConfig struct {
	// MaxGap splits a trajectory when consecutive traces are further
	// apart in time (default 15 minutes).
	MaxGap time.Duration
	// MaxPoints caps a segment's length (default 512).
	MaxPoints int
}

func (c BuilderConfig) withDefaults() BuilderConfig {
	if c.MaxGap <= 0 {
		c.MaxGap = 15 * time.Minute
	}
	if c.MaxPoints <= 0 {
		c.MaxPoints = 512
	}
	return c
}

// trace is one input observation.
type trace struct {
	vehicle int64
	p       geo.Point
	t       time.Time
}

// BuildSegments groups records into per-vehicle trip segments.
// Records need a "vehicleId" payload field; records without one are
// skipped.
func BuildSegments(recs []core.Record, cfg BuilderConfig) []*Segment {
	cfg = cfg.withDefaults()
	byVehicle := make(map[int64][]trace)
	for _, r := range recs {
		var vid int64
		found := false
		for _, e := range r.Fields {
			if e.Key == "vehicleId" {
				if v, ok := bson.Int64Value(bson.Normalize(e.Value)); ok {
					vid, found = v, true
				}
				break
			}
		}
		if !found {
			continue
		}
		byVehicle[vid] = append(byVehicle[vid], trace{vehicle: vid, p: r.Point, t: r.Time})
	}
	vehicles := make([]int64, 0, len(byVehicle))
	for vid := range byVehicle {
		vehicles = append(vehicles, vid)
	}
	slices.Sort(vehicles)

	var out []*Segment
	for _, vid := range vehicles {
		traces := byVehicle[vid]
		slices.SortFunc(traces, func(a, b trace) int { return a.t.Compare(b.t) })
		var cur *Segment
		flush := func() {
			if cur != nil && len(cur.Points) > 0 {
				out = append(out, cur)
			}
			cur = nil
		}
		for _, tr := range traces {
			if cur != nil &&
				(tr.t.Sub(cur.End) > cfg.MaxGap || len(cur.Points) >= cfg.MaxPoints) {
				flush()
			}
			if cur == nil {
				cur = &Segment{
					VehicleID: vid,
					Start:     tr.t,
					MBR:       geo.Rect{Min: tr.p, Max: tr.p},
				}
			}
			cur.Points = append(cur.Points, tr.p)
			cur.Times = append(cur.Times, tr.t)
			cur.End = tr.t
			growRect(&cur.MBR, tr.p)
		}
		flush()
	}
	return out
}

func growRect(r *geo.Rect, p geo.Point) {
	if p.Lon < r.Min.Lon {
		r.Min.Lon = p.Lon
	}
	if p.Lat < r.Min.Lat {
		r.Min.Lat = p.Lat
	}
	if p.Lon > r.Max.Lon {
		r.Max.Lon = p.Lon
	}
	if p.Lat > r.Max.Lat {
		r.Max.Lat = p.Lat
	}
}

// Document encodes a segment for storage.
func (s *Segment) Document() *bson.Document {
	pts := make(bson.A, 0, len(s.Points))
	for i, p := range s.Points {
		pts = append(pts, bson.FromD(bson.D{
			{Key: "lon", Value: p.Lon},
			{Key: "lat", Value: p.Lat},
			{Key: "t", Value: s.Times[i].UTC()},
		}))
	}
	return bson.FromD(bson.D{
		{Key: "vehicleId", Value: s.VehicleID},
		{Key: "startDate", Value: s.Start.UTC()},
		{Key: "endDate", Value: s.End.UTC()},
		{Key: "mbr", Value: bson.A{s.MBR.Min.Lon, s.MBR.Min.Lat, s.MBR.Max.Lon, s.MBR.Max.Lat}},
		{Key: "points", Value: pts},
	})
}

// SegmentFromDocument decodes a stored segment.
func SegmentFromDocument(doc bson.Doc) (*Segment, error) {
	out := &Segment{}
	vid, ok := bson.Int64Value(get(doc, "vehicleId"))
	if !ok {
		return nil, fmt.Errorf("traj: missing vehicleId")
	}
	out.VehicleID = vid
	start, ok := get(doc, "startDate").(time.Time)
	if !ok {
		return nil, fmt.Errorf("traj: missing startDate")
	}
	end, ok := get(doc, "endDate").(time.Time)
	if !ok {
		return nil, fmt.Errorf("traj: missing endDate")
	}
	out.Start, out.End = start, end
	mbr, ok := get(doc, "mbr").(bson.A)
	if !ok || len(mbr) != 4 {
		return nil, fmt.Errorf("traj: malformed mbr")
	}
	coords := make([]float64, 4)
	for i, v := range mbr {
		f, ok := bson.NumericValue(v)
		if !ok {
			return nil, fmt.Errorf("traj: malformed mbr value")
		}
		coords[i] = f
	}
	out.MBR = geo.NewRect(coords[0], coords[1], coords[2], coords[3])
	pts, ok := get(doc, "points").(bson.A)
	if !ok {
		return nil, fmt.Errorf("traj: missing points")
	}
	for _, raw := range pts {
		pd, ok := raw.(*bson.Document)
		if !ok {
			return nil, fmt.Errorf("traj: malformed point")
		}
		lon, ok1 := bson.NumericValue(pd.Get("lon"))
		lat, ok2 := bson.NumericValue(pd.Get("lat"))
		ts, ok3 := pd.Get("t").(time.Time)
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("traj: malformed point fields")
		}
		out.Points = append(out.Points, geo.Point{Lon: lon, Lat: lat})
		out.Times = append(out.Times, ts)
	}
	return out, nil
}

func get(doc bson.Doc, path string) any {
	v, _ := doc.Lookup(path)
	return v
}
