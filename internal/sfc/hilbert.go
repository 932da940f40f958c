// Package sfc implements the space-filling curves the store uses to
// linearise 2D positions: the Hilbert curve (the paper's proposal) and
// the z-order curve (kept for ablation, since geohash-style indexes
// are z-order based). It also provides rectangle covering: turning a
// query rectangle into a minimal sorted list of 1D cell ranges, which
// the query layer translates into B-tree scan bounds ($or of
// $gte/$lte ranges plus an $in list, as in Section 4.2 of the paper).
package sfc

import (
	"fmt"
	"slices"
)

// MaxOrder is the largest supported curve order (bits per dimension).
// 2*MaxOrder bits must fit in uint64 with room for arithmetic.
const MaxOrder = 31

// Hilbert is a 2D Hilbert curve of a fixed order: a bijection between
// cell coordinates in [0, 2^order)² and curve positions in
// [0, 4^order). The zero value is unusable; construct with NewHilbert.
type Hilbert struct {
	order uint
}

// NewHilbert returns a Hilbert curve with the given order (bits per
// dimension, 1..MaxOrder).
func NewHilbert(order uint) (*Hilbert, error) {
	if order < 1 || order > MaxOrder {
		return nil, fmt.Errorf("sfc: order %d out of range [1,%d]", order, MaxOrder)
	}
	return &Hilbert{order: order}, nil
}

// Order returns the curve order.
func (h *Hilbert) Order() uint { return h.order }

// Cells returns the number of cells per dimension, 2^order.
func (h *Hilbert) Cells() uint32 { return 1 << h.order }

// Positions returns the number of curve positions, 4^order.
func (h *Hilbert) Positions() uint64 { return 1 << (2 * h.order) }

// quadrant digit: d-digit q = (3*rx) ^ ry, giving the U-shaped visit
// order (0,0) → (0,1) → (1,1) → (1,0) before rotation.
func quadrantDigit(rx, ry uint32) uint64 { return uint64((3 * rx) ^ ry) }

func digitQuadrant(q uint64) (rx, ry uint32) {
	switch q {
	case 0:
		return 0, 0
	case 1:
		return 0, 1
	case 2:
		return 1, 1
	default:
		return 1, 0
	}
}

// XY2D maps cell coordinates to the curve position. Coordinates
// outside the grid are clipped to it.
func (h *Hilbert) XY2D(x, y uint32) uint64 {
	if max := h.Cells() - 1; x > max || y > max {
		if x > max {
			x = max
		}
		if y > max {
			y = max
		}
	}
	var d uint64
	for k := h.order; k > 0; k-- {
		s := uint32(1) << (k - 1)
		var rx, ry uint32
		if x&s != 0 {
			rx = 1
		}
		if y&s != 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * quadrantDigit(rx, ry)
		// Descend into the child frame: strip the level bit and apply
		// the quadrant's rotation.
		x &= s - 1
		y &= s - 1
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}

// D2XY maps a curve position back to cell coordinates; the inverse of
// XY2D. Positions beyond the curve are clipped to the last cell.
func (h *Hilbert) D2XY(d uint64) (x, y uint32) {
	if d >= h.Positions() {
		d = h.Positions() - 1
	}
	for k := uint(1); k <= h.order; k++ {
		s := uint32(1) << (k - 1)
		q := (d >> (2 * (k - 1))) & 3
		rx, ry := digitQuadrant(q)
		// Invert the child-frame rotation (swap, then reflect), then
		// re-add the level bit.
		if ry == 0 {
			x, y = y, x
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
		}
		x += rx * s
		y += ry * s
	}
	return x, y
}

// Cover returns the sorted, merged list of curve ranges whose cells
// intersect the cell-coordinate rectangle [x0,x1]×[y0,y1] (inclusive).
// The result is exact: a cell is in some range if and only if it
// intersects the rectangle.
func (h *Hilbert) Cover(x0, y0, x1, y1 uint32) []Range {
	max := h.Cells() - 1
	x0, y0 = clip(x0, max), clip(y0, max)
	x1, y1 = clip(x1, max), clip(y1, max)
	if x0 > x1 || y0 > y1 {
		return nil
	}
	// The recursion merges as it emits, into a buffer that holds a
	// small cover on the stack; the cover is then copied out at its
	// size, one allocation whatever its length.
	var buf [64]Range
	return slices.Clone(h.coverRec(h.order, box{x0, y0, x1, y1}, 0, buf[:0]))
}

// emit appends [lo, hi] to the ascending cover, merged into its last
// range when adjacent.
func emit(out []Range, lo, hi uint64) []Range {
	if n := len(out); n > 0 && out[n-1].Hi+1 == lo {
		out[n-1].Hi = hi
		return out
	}
	return append(out, Range{Lo: lo, Hi: hi})
}

func clip(v, max uint32) uint32 {
	if v > max {
		return max
	}
	return v
}

// box is an inclusive cell rectangle in the current recursion frame.
type box struct{ x0, y0, x1, y1 uint32 }

// coverRec appends to out the ranges of the part of the query box lying
// in the current frame of size 2^order, whose curve positions start at
// d0. Quadrants are visited in curve order, so emission is ascending.
func (h *Hilbert) coverRec(order uint, q box, d0 uint64, out []Range) []Range {
	if order == 0 {
		return emit(out, d0, d0)
	}
	s := uint32(1) << (order - 1)
	area := uint64(s) * uint64(s)
	for digit := uint64(0); digit < 4; digit++ {
		rx, ry := digitQuadrant(digit)
		qb := box{rx * s, ry * s, rx*s + s - 1, ry*s + s - 1}
		ix0, iy0 := maxU32(q.x0, qb.x0), maxU32(q.y0, qb.y0)
		ix1, iy1 := minU32(q.x1, qb.x1), minU32(q.y1, qb.y1)
		if ix0 > ix1 || iy0 > iy1 {
			continue
		}
		base := d0 + digit*area
		if ix0 == qb.x0 && iy0 == qb.y0 && ix1 == qb.x1 && iy1 == qb.y1 {
			// Quadrant fully covered: one contiguous range.
			out = emit(out, base, base+area-1)
			continue
		}
		// Transform the clipped box into the child frame: translate,
		// then the same rotation XY2D applies to points.
		cb := box{ix0 - rx*s, iy0 - ry*s, ix1 - rx*s, iy1 - ry*s}
		if ry == 0 {
			if rx == 1 {
				cb = box{s - 1 - cb.x1, s - 1 - cb.y1, s - 1 - cb.x0, s - 1 - cb.y0}
			}
			cb = box{cb.y0, cb.x0, cb.y1, cb.x1}
		}
		out = h.coverRec(order-1, cb, base, out)
	}
	return out
}

func maxU32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

func minU32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}
