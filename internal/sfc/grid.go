package sfc

import (
	"fmt"

	"repro/internal/geo"
)

// Curve is the common interface of the supported space-filling
// curves.
type Curve interface {
	// Order returns the bits per dimension.
	Order() uint
	// Cells returns the grid side length, 2^order.
	Cells() uint32
	// Positions returns the curve length, 4^order.
	Positions() uint64
	// XY2D maps cell coordinates to a curve position.
	XY2D(x, y uint32) uint64
	// D2XY maps a curve position to cell coordinates.
	D2XY(d uint64) (x, y uint32)
	// Cover lists the curve ranges intersecting a cell rectangle.
	Cover(x0, y0, x1, y1 uint32) []Range
}

var (
	_ Curve = (*Hilbert)(nil)
	_ Curve = (*ZOrder)(nil)
)

// Grid binds a curve to a geographic extent, quantising lon/lat
// coordinates into curve cells. The paper's hil method uses a Hilbert
// grid over geo.World; hil* uses the same order over the data set's
// MBR, which yields finer cells for the same number of bits.
type Grid struct {
	curve  Curve
	extent geo.Rect
}

// NewGrid returns a grid over the extent. The extent must be valid
// and non-degenerate.
func NewGrid(curve Curve, extent geo.Rect) (*Grid, error) {
	if !extent.Valid() {
		return nil, fmt.Errorf("sfc: invalid grid extent %v", extent)
	}
	if extent.Width() <= 0 || extent.Height() <= 0 {
		return nil, fmt.Errorf("sfc: degenerate grid extent %v", extent)
	}
	return &Grid{curve: curve, extent: extent}, nil
}

// Curve returns the underlying curve.
func (g *Grid) Curve() Curve { return g.curve }

// Extent returns the geographic extent of the grid.
func (g *Grid) Extent() geo.Rect { return g.extent }

// CellOf returns the cell coordinates containing the point. Points
// outside the extent are clamped onto its border cells (documents are
// validated against the extent at load time, so clamping only guards
// against floating-point edge effects).
func (g *Grid) CellOf(p geo.Point) (x, y uint32) {
	n := float64(g.curve.Cells())
	fx := (p.Lon - g.extent.Min.Lon) / g.extent.Width() * n
	fy := (p.Lat - g.extent.Min.Lat) / g.extent.Height() * n
	return clampCell(fx, g.curve.Cells()), clampCell(fy, g.curve.Cells())
}

func clampCell(f float64, cells uint32) uint32 {
	if f < 0 {
		return 0
	}
	v := uint32(f)
	if v >= cells {
		return cells - 1
	}
	return v
}

// Encode returns the curve position of the point's cell — the value
// stored in the hilbertIndex field.
func (g *Grid) Encode(p geo.Point) uint64 {
	x, y := g.CellOf(p)
	return g.curve.XY2D(x, y)
}

// CellRect returns the geographic rectangle of the cell at the given
// curve position.
func (g *Grid) CellRect(d uint64) geo.Rect {
	x, y := g.curve.D2XY(d)
	n := float64(g.curve.Cells())
	w, h := g.extent.Width()/n, g.extent.Height()/n
	min := geo.Point{
		Lon: g.extent.Min.Lon + float64(x)*w,
		Lat: g.extent.Min.Lat + float64(y)*h,
	}
	return geo.Rect{Min: min, Max: geo.Point{Lon: min.Lon + w, Lat: min.Lat + h}}
}

// Cover returns the merged curve ranges of all cells intersecting the
// query rectangle. A query disjoint from the extent returns nil.
func (g *Grid) Cover(query geo.Rect) []Range {
	clipped, ok := query.Intersection(g.extent)
	if !ok {
		return nil
	}
	x0, y0 := g.CellOf(clipped.Min)
	x1, y1 := g.CellOf(clipped.Max)
	// The max corner may sit exactly on a cell boundary; CellOf floors
	// it into the next cell, which still intersects the closed query
	// rectangle, so no correction is needed for the inclusive cover.
	return g.curve.Cover(x0, y0, x1, y1)
}

// Box is an inclusive rectangle of grid cells: columns X0..X1, rows
// Y0..Y1.
type Box struct{ X0, Y0, X1, Y1 uint32 }

// Contains reports whether the cell at column x, row y lies in the box.
func (b Box) Contains(x, y uint32) bool {
	return x >= b.X0 && x <= b.X1 && y >= b.Y0 && y <= b.Y1
}

// InteriorBox returns the box of cells strictly between the clipped
// query rectangle's corner cells: every point whose cell is among them
// lies strictly inside the rectangle. CellOf is monotone in each
// coordinate, so a point whose column exceeds the min corner's lies
// east of the min corner (and likewise for the other three sides);
// clamping only ever yields border cells, which are never interior. ok
// is false when the rectangle spans fewer than three cells in either
// dimension.
func (g *Grid) InteriorBox(query geo.Rect) (b Box, ok bool) {
	clipped, ok := query.Intersection(g.extent)
	if !ok {
		return Box{}, false
	}
	x0, y0 := g.CellOf(clipped.Min)
	x1, y1 := g.CellOf(clipped.Max)
	if x1 < x0+2 || y1 < y0+2 {
		return Box{}, false
	}
	return Box{X0: x0 + 1, Y0: y0 + 1, X1: x1 - 1, Y1: y1 - 1}, true
}

// Interior returns the merged curve ranges of InteriorBox's cells, nil
// when it has none.
func (g *Grid) Interior(query geo.Rect) []Range {
	b, ok := g.InteriorBox(query)
	if !ok {
		return nil
	}
	return g.curve.Cover(b.X0, b.Y0, b.X1, b.Y1)
}
