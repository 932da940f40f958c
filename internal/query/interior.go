package query

import (
	"bytes"
	"fmt"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/keyenc"
	"repro/internal/sfc"
)

// Containment is what a store that derives an index's leading field
// from a point field knows about the pair: every document's Leading
// value is Cell of its Geo point, and Interior maps a rectangle to the
// ascending, disjoint curve ranges whose cells lie strictly inside it.
// A count, or a cell histogram over Leading, whose residual predicate
// is just a $geoWithin on Geo then classifies each key it scans: a key
// leading with an interior cell proves the document matches, so the
// execution takes the document's contribution from the key without
// fetching it.
//
// The proof holds only while every stored document keeps the
// invariant: a store that supplies a Containment through Config writes
// Leading from the point on its own write paths, and refuses, with
// Check, any document that arrives already encoded.
type Containment struct {
	Leading  string
	Geo      string
	Cell     func(geo.Point) uint64
	Interior func(geo.Rect) []sfc.Range
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

// interior is the classification of one access path's keys: the
// interior curve ranges, each as its inclusive bounds lo then hi,
// encoded like the index's leading component in boundLen bytes each.
// The ranges ascend.
type interior struct {
	bounds []byte
}

// boundLen is the length of an encoded number: its class byte and
// eight ordered bytes.
const boundLen = 9

// interiorFor returns the classification of the plan's keys under c,
// or nil when a key cannot answer for its document: the index does not
// lead with c.Leading, the residual is not exactly one $geoWithin on
// c.Geo, or the rectangle has no interior cell. It is derived at most
// once per access path and containment, beside the path's residual,
// and only when a shard executes: a result-cache hit never pays for it.
func (p *Prepared) interiorFor(plan *Plan, c *Containment) *interior {
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
	return nil
}

func buildInterior(ix *index.Index, residual Filter, c *Containment) *interior {
	lead := ix.Def().Fields[0]
	if lead.Name != c.Leading || lead.Kind != index.Ascending {
		return nil
	}
	if and, ok := residual.(And); ok && len(and.Children) == 1 {
		residual = and.Children[0]
	}
	g, ok := residual.(GeoWithin)
	if !ok || g.Field != c.Geo {
		return nil
	}
	ranges := c.Interior(g.Rect)
	// Index keys hold numbers as float64: past 2^53 neighbouring cells
	// share a key, which then cannot tell an interior cell from the
	// boundary cell beside it.
	if len(ranges) == 0 || ranges[len(ranges)-1].Hi > 1<<53 {
		return nil
	}
	in := &interior{bounds: make([]byte, 0, 2*boundLen*len(ranges))}
	for _, r := range ranges {
		in.bounds = keyenc.AppendNumber(in.bounds, float64(r.Lo))
		in.bounds = keyenc.AppendNumber(in.bounds, float64(r.Hi))
	}
	return in
}

// contains reports whether the key's leading value lies in an interior
// range. Keys arrive in ascending order within an execution, so *at —
// the offset of the first range whose upper bound the keys have not
// passed — only moves forward.
func (in *interior) contains(at *int, key []byte) bool {
	n, err := keyenc.ComponentLen(key)
	if err != nil {
		return false
	}
	lead := key[:n]
	for *at < len(in.bounds) && bytes.Compare(lead, in.bounds[*at+boundLen:*at+2*boundLen]) > 0 {
		*at += 2 * boundLen
	}
	return *at < len(in.bounds) && bytes.Compare(lead, in.bounds[*at:*at+boundLen]) >= 0
}
