package query

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/keyenc"
	"repro/internal/sfc"
)

// Containment is what a store that derives an index's leading field
// from a point field knows about the pair: every document's Leading
// value is Cell of its Geo point, Interior maps a rectangle to the box
// of grid cells strictly inside it, and XY maps a cell to its column
// and row in that grid. An execution whose residual predicate is just a
// $geoWithin on Geo then classifies each key it scans: a key leading
// with a cell in the box proves the document matches. A count, or a
// cell histogram over Leading, takes the document's contribution from
// the key without fetching it; any other document execution fetches it
// and keeps it without the refine. An execution that collects record
// ids (MatchingRecords) never classifies: it refines every document.
//
// The proof holds only while every stored document keeps the
// invariant: a store that supplies a Containment through Config writes
// Leading from the point on its own write paths, and refuses, with
// Check, any document that arrives already encoded.
type Containment struct {
	Leading  string
	Geo      string
	Cell     func(geo.Point) uint64
	Interior func(geo.Rect) (sfc.Box, bool)
	XY       func(cell uint64) (x, y uint32)
}

// Check reports why a document breaks the invariant: its Geo field is
// not a point, or its Leading field is not the int64 Cell of that
// point. It returns nil for a document that keeps it.
func (c *Containment) Check(doc bson.Raw) error {
	v, ok := doc.LookupRaw(c.Geo)
	if !ok {
		return fmt.Errorf("no %s point", c.Geo)
	}
	lon, lat, ok := v.GeoPoint()
	if !ok {
		return fmt.Errorf("%s is not a point", c.Geo)
	}
	want := int64(c.Cell(geo.Point{Lon: lon, Lat: lat}))
	if v, ok = doc.LookupRaw(c.Leading); !ok {
		return fmt.Errorf("no %s (want %d)", c.Leading, want)
	}
	got, ok := v.Int64()
	if !ok {
		return fmt.Errorf("%s is not an int64 (want %d)", c.Leading, want)
	}
	if got != want {
		return fmt.Errorf("%s %d is not the cell of %s (want %d)", c.Leading, got, c.Geo, want)
	}
	return nil
}

// interior is the classification of one access path's keys: the box
// of interior cells, and the grid mapping a key's cell into it. ok is
// false when no key can answer for its document. lead and inside
// memoize the last leading value classified: keys of one cell arrive
// together, so an execution maps each cell once.
type interior struct {
	ok     bool
	box    sfc.Box
	xy     func(uint64) (x, y uint32)
	memo   bool
	inside bool
	lead   [numberLen]byte
}

// numberLen is the length of an encoded number: its class byte and
// eight ordered bytes.
const numberLen = 9

// interiorFor returns the classification of the plan's keys under c;
// it is not ok when a key cannot answer for its document: the index
// does not lead with c.Leading, the residual is not exactly one
// $geoWithin on c.Geo, or the rectangle has no interior cell. It is
// derived at most once per access path and containment, beside the
// path's residual, and only when a shard executes: a result-cache hit
// never pays for it.
func (p *Prepared) interiorFor(plan *Plan, c *Containment) interior {
	spec, geoBits := plan.Index.Spec(), plan.Index.Def().GeoBits
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.paths {
		ap := &p.paths[i]
		if ap.spec != spec || ap.geoBits != geoBits {
			continue
		}
		if ap.contain != c {
			ap.contain, ap.interior = c, buildInterior(plan.Index, ap.residual, c)
		}
		return ap.interior
	}
	return interior{}
}

func buildInterior(ix *index.Index, residual Filter, c *Containment) interior {
	lead := ix.Def().Fields[0]
	if lead.Name != c.Leading || lead.Kind != index.Ascending {
		return interior{}
	}
	if and, ok := residual.(And); ok && len(and.Children) == 1 {
		residual = and.Children[0]
	}
	g, ok := residual.(GeoWithin)
	if !ok || g.Field != c.Geo {
		return interior{}
	}
	box, ok := c.Interior(g.Rect)
	return interior{ok: ok, box: box, xy: c.XY}
}

// contains reports whether the key's leading value is a cell in the
// box. Index keys hold numbers as float64, exact only below 2^53: past
// it neighbouring cells share a key, which then cannot tell an interior
// cell from the boundary cell beside it, so such a key, like one that
// is not a whole non-negative number, is never interior.
func (in *interior) contains(key []byte) bool {
	if len(key) < numberLen {
		return false
	}
	lead := key[:numberLen]
	if in.memo && bytes.Equal(lead, in.lead[:]) {
		return in.inside
	}
	copy(in.lead[:], lead)
	in.memo, in.inside = true, false
	if v, ok := keyenc.Number(lead); ok && v >= 0 && v < 1<<53 && v == math.Trunc(v) {
		in.inside = in.box.Contains(in.xy(uint64(v)))
	}
	return in.inside
}
