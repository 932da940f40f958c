package sfc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geo"
)

func TestNewCurveOrderValidation(t *testing.T) {
	for _, order := range []uint{0, MaxOrder + 1} {
		if _, err := NewHilbert(order); err == nil {
			t.Errorf("NewHilbert(%d) accepted", order)
		}
		if _, err := NewZOrder(order); err == nil {
			t.Errorf("NewZOrder(%d) accepted", order)
		}
	}
	h, err := NewHilbert(13)
	if err != nil {
		t.Fatal(err)
	}
	if h.Cells() != 8192 || h.Positions() != 8192*8192 {
		t.Fatalf("Cells=%d Positions=%d", h.Cells(), h.Positions())
	}
}

func TestHilbertOrder1Layout(t *testing.T) {
	h, _ := NewHilbert(1)
	want := map[[2]uint32]uint64{
		{0, 0}: 0, {0, 1}: 1, {1, 1}: 2, {1, 0}: 3,
	}
	for xy, d := range want {
		if got := h.XY2D(xy[0], xy[1]); got != d {
			t.Errorf("XY2D(%d,%d) = %d, want %d", xy[0], xy[1], got, d)
		}
	}
}

func TestHilbertBijectionSmallOrders(t *testing.T) {
	for order := uint(1); order <= 6; order++ {
		h, _ := NewHilbert(order)
		seen := make(map[uint64][2]uint32)
		for x := uint32(0); x < h.Cells(); x++ {
			for y := uint32(0); y < h.Cells(); y++ {
				d := h.XY2D(x, y)
				if d >= h.Positions() {
					t.Fatalf("order %d: d=%d out of range", order, d)
				}
				if prev, dup := seen[d]; dup {
					t.Fatalf("order %d: d=%d for both %v and (%d,%d)", order, d, prev, x, y)
				}
				seen[d] = [2]uint32{x, y}
				bx, by := h.D2XY(d)
				if bx != x || by != y {
					t.Fatalf("order %d: D2XY(XY2D(%d,%d)) = (%d,%d)", order, x, y, bx, by)
				}
			}
		}
	}
}

// TestHilbertAdjacency is the defining property of the Hilbert curve:
// consecutive curve positions are 4-adjacent cells. (Z-order does NOT
// have this property, which is why the paper prefers Hilbert.)
func TestHilbertAdjacency(t *testing.T) {
	for order := uint(1); order <= 7; order++ {
		h, _ := NewHilbert(order)
		px, py := h.D2XY(0)
		for d := uint64(1); d < h.Positions(); d++ {
			x, y := h.D2XY(d)
			dist := absDiff(x, px) + absDiff(y, py)
			if dist != 1 {
				t.Fatalf("order %d: d=%d jumps from (%d,%d) to (%d,%d)", order, d, px, py, x, y)
			}
			px, py = x, y
		}
	}
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestHilbertBijectionPropertyLargeOrder(t *testing.T) {
	h, _ := NewHilbert(16)
	f := func(x, y uint32) bool {
		x %= h.Cells()
		y %= h.Cells()
		bx, by := h.D2XY(h.XY2D(x, y))
		return bx == x && by == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestZOrderBijectionProperty(t *testing.T) {
	z, _ := NewZOrder(16)
	f := func(x, y uint32) bool {
		x %= z.Cells()
		y %= z.Cells()
		bx, by := z.D2XY(z.XY2D(x, y))
		return bx == x && by == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestZOrderInterleaving(t *testing.T) {
	z, _ := NewZOrder(4)
	// x=0b1010, y=0b0110 -> d bits: y3x3 y2x2 y1x1 y0x0 = 01 11 10 01? No:
	// bit i of x lands at bit 2i, bit i of y at 2i+1.
	x, y := uint32(0b1010), uint32(0b0110)
	want := uint64(0)
	for i := uint(0); i < 4; i++ {
		want |= uint64((x>>i)&1) << (2 * i)
		want |= uint64((y>>i)&1) << (2*i + 1)
	}
	if got := z.XY2D(x, y); got != want {
		t.Fatalf("XY2D = %b, want %b", got, want)
	}
}

func TestCoverMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, mk := range []func(uint) (Curve, error){
		func(o uint) (Curve, error) { return NewHilbert(o) },
		func(o uint) (Curve, error) { return NewZOrder(o) },
	} {
		for order := uint(1); order <= 5; order++ {
			c, _ := mk(order)
			n := c.Cells()
			for trial := 0; trial < 40; trial++ {
				x0, x1 := rng.Uint32()%n, rng.Uint32()%n
				y0, y1 := rng.Uint32()%n, rng.Uint32()%n
				if x0 > x1 {
					x0, x1 = x1, x0
				}
				if y0 > y1 {
					y0, y1 = y1, y0
				}
				cover := c.Cover(x0, y0, x1, y1)
				// Sorted, disjoint, non-adjacent.
				for i := 1; i < len(cover); i++ {
					if cover[i].Lo <= cover[i-1].Hi+1 {
						t.Fatalf("order %d: ranges not merged/sorted: %v", order, cover)
					}
				}
				// Exact membership.
				inCover := func(d uint64) bool {
					for _, r := range cover {
						if r.Contains(d) {
							return true
						}
					}
					return false
				}
				for x := uint32(0); x < n; x++ {
					for y := uint32(0); y < n; y++ {
						d := c.XY2D(x, y)
						inRect := x >= x0 && x <= x1 && y >= y0 && y <= y1
						if inRect != inCover(d) {
							t.Fatalf("order %d rect(%d,%d,%d,%d): cell (%d,%d) d=%d inRect=%v inCover=%v",
								order, x0, y0, x1, y1, x, y, d, inRect, inCover(d))
						}
					}
				}
			}
		}
	}
}

func TestCoverFullGridIsOneRange(t *testing.T) {
	h, _ := NewHilbert(8)
	cover := h.Cover(0, 0, h.Cells()-1, h.Cells()-1)
	if len(cover) != 1 || cover[0].Lo != 0 || cover[0].Hi != h.Positions()-1 {
		t.Fatalf("full cover = %v", cover)
	}
}

func TestCoverClipsOutOfRange(t *testing.T) {
	h, _ := NewHilbert(4)
	cover := h.Cover(0, 0, 1<<20, 1<<20)
	if len(cover) != 1 || cover[0].Hi != h.Positions()-1 {
		t.Fatalf("clipped cover = %v", cover)
	}
}

func TestHilbertCoverTighterThanZOrder(t *testing.T) {
	// The Hilbert curve's better clustering should show up as no more
	// (and usually fewer) ranges than z-order for typical query boxes;
	// this is the Moon et al. property the paper cites. We assert it
	// on aggregate, not per box.
	h, _ := NewHilbert(10)
	z, _ := NewZOrder(10)
	rng := rand.New(rand.NewSource(5))
	totalH, totalZ := 0, 0
	for trial := 0; trial < 100; trial++ {
		x0, y0 := rng.Uint32()%900, rng.Uint32()%900
		w, ht := rng.Uint32()%100+5, rng.Uint32()%100+5
		totalH += len(h.Cover(x0, y0, x0+w, y0+ht))
		totalZ += len(z.Cover(x0, y0, x0+w, y0+ht))
	}
	if totalH >= totalZ {
		t.Fatalf("hilbert ranges %d >= zorder ranges %d over 100 boxes", totalH, totalZ)
	}
}

func TestMergeRanges(t *testing.T) {
	in := []Range{{10, 12}, {1, 3}, {4, 5}, {13, 20}, {30, 31}}
	out := MergeRanges(in)
	want := []Range{{1, 5}, {10, 20}, {30, 31}}
	if len(out) != len(want) {
		t.Fatalf("merged = %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("merged = %v, want %v", out, want)
		}
	}
	if got := MergeRanges(nil); len(got) != 0 {
		t.Fatalf("MergeRanges(nil) = %v", got)
	}
}

func TestCoalesceRanges(t *testing.T) {
	in := []Range{{0, 1}, {5, 6}, {100, 101}, {103, 104}, {200, 201}}
	out := CoalesceRanges(append([]Range{}, in...), 3)
	if len(out) != 3 {
		t.Fatalf("coalesced to %d ranges: %v", len(out), out)
	}
	// Every original position still covered.
	for _, r := range in {
		for d := r.Lo; d <= r.Hi; d++ {
			ok := false
			for _, o := range out {
				if o.Contains(d) {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("position %d lost after coalesce: %v", d, out)
			}
		}
	}
	// Smallest gaps merged first: {100,101} and {103,104} must be one.
	found := false
	for _, o := range out {
		if o.Lo == 100 && o.Hi == 104 {
			found = true
		}
	}
	if !found {
		t.Fatalf("smallest gap not merged: %v", out)
	}
	// No-op cases.
	if got := CoalesceRanges(in, 10); len(got) != len(in) {
		t.Fatal("coalesce with generous budget changed input")
	}
	if got := CoalesceRanges(in, 0); len(got) != len(in) {
		t.Fatal("coalesce with zero budget changed input")
	}
}

func TestStatsOf(t *testing.T) {
	st := StatsOf([]Range{{1, 1}, {5, 9}})
	if st.Ranges != 2 || st.Singles != 1 || st.Positions != 6 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGridEncodeDecode(t *testing.T) {
	h, _ := NewHilbert(13)
	g, err := NewGrid(h, geo.World)
	if err != nil {
		t.Fatal(err)
	}
	athens := geo.Point{Lon: 23.727539, Lat: 37.983810}
	d := g.Encode(athens)
	cell := g.CellRect(d)
	if !cell.Contains(athens) {
		t.Fatalf("cell %v does not contain %v", cell, athens)
	}
	// Cell size for 13 bits over the world.
	if w := cell.Width(); w < 0.04 || w > 0.05 {
		t.Fatalf("cell width = %v, want ~360/8192", w)
	}
}

func TestGridRestrictedExtentFinerCells(t *testing.T) {
	h, _ := NewHilbert(13)
	world, _ := NewGrid(h, geo.World)
	greece, _ := NewGrid(h, geo.NewRect(19.632533, 34.929233, 28.245285, 41.757797))
	p := geo.Point{Lon: 23.7, Lat: 37.9}
	cw := world.CellRect(world.Encode(p)).AreaKm2()
	cg := greece.CellRect(greece.Encode(p)).AreaKm2()
	if cg >= cw {
		t.Fatalf("restricted-extent cell (%v km2) not finer than world cell (%v km2)", cg, cw)
	}
}

func TestGridCoverContainsAllPoints(t *testing.T) {
	h, _ := NewHilbert(10)
	g, _ := NewGrid(h, geo.World)
	query := geo.NewRect(23.60, 38.02, 24.03, 38.35)
	cover := g.Cover(query)
	if len(cover) == 0 {
		t.Fatal("empty cover")
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 2000; i++ {
		p := geo.Point{
			Lon: query.Min.Lon + rng.Float64()*query.Width(),
			Lat: query.Min.Lat + rng.Float64()*query.Height(),
		}
		d := g.Encode(p)
		ok := false
		for _, r := range cover {
			if r.Contains(d) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("point %v (d=%d) not in cover", p, d)
		}
	}
}

func TestGridCoverDisjointQuery(t *testing.T) {
	h, _ := NewHilbert(8)
	g, _ := NewGrid(h, geo.NewRect(0, 0, 10, 10))
	if cover := g.Cover(geo.NewRect(50, 50, 60, 60)); cover != nil {
		t.Fatalf("cover of disjoint query = %v", cover)
	}
}

func TestNewGridValidation(t *testing.T) {
	h, _ := NewHilbert(8)
	if _, err := NewGrid(h, geo.Rect{Min: geo.Point{Lon: 10}, Max: geo.Point{Lon: 10}}); err == nil {
		t.Error("degenerate extent accepted")
	}
	if _, err := NewGrid(h, geo.Rect{Min: geo.Point{Lon: 500}, Max: geo.Point{Lon: 600}}); err == nil {
		t.Error("invalid extent accepted")
	}
}

// TestGridInteriorCellsLieInside: a point whose cell is among a
// rectangle's interior cells lies strictly inside the rectangle — for
// rectangles whose edges sit exactly on cell edges, one ulp off them,
// or anywhere, clipped by the extent or not, and for points on every
// cell edge, on the rectangle's edges and one ulp either side of them.
// Interior cells are covered cells, and a rectangle spanning fewer than
// three cells in either dimension has none.
func TestGridInteriorCellsLieInside(t *testing.T) {
	h, _ := NewHilbert(5)
	z, _ := NewZOrder(5)
	rng := rand.New(rand.NewSource(31))
	for _, curve := range []Curve{h, z} {
		for _, extent := range []geo.Rect{geo.NewRect(23, 37, 25, 39), geo.World} {
			g, _ := NewGrid(curve, extent)
			n := float64(curve.Cells())
			cw, ch := extent.Width()/n, extent.Height()/n
			// edge returns a coordinate at cell edge k (k may lie
			// outside the grid), nudged as the mode says.
			edge := func(min, size float64, k int, mode int) float64 {
				v := min + float64(k)*size
				switch mode {
				case 1:
					return math.Nextafter(v, math.Inf(1))
				case 2:
					return math.Nextafter(v, math.Inf(-1))
				case 3:
					return v + rng.Float64()*size
				}
				return v
			}
			interiors := 0
			for i := 0; i < 400; i++ {
				kx, ky := rng.Intn(36)-2, rng.Intn(36)-2
				query := geo.Rect{
					Min: geo.Point{Lon: edge(extent.Min.Lon, cw, kx, rng.Intn(4)), Lat: edge(extent.Min.Lat, ch, ky, rng.Intn(4))},
					Max: geo.Point{Lon: edge(extent.Min.Lon, cw, kx+1+rng.Intn(4), rng.Intn(4)), Lat: edge(extent.Min.Lat, ch, ky+1+rng.Intn(4), rng.Intn(4))},
				}
				interior := g.Interior(query)
				cover := g.Cover(query)
				in := func(rs []Range, d uint64) bool {
					for _, r := range rs {
						if r.Contains(d) {
							return true
						}
					}
					return false
				}
				for _, r := range interior {
					for d := r.Lo; d <= r.Hi; d++ {
						if !in(cover, d) {
							t.Fatalf("%T %v: interior cell %d outside the cover", curve, query, d)
						}
					}
				}
				if clipped, ok := query.Intersection(extent); ok {
					x0, y0 := g.CellOf(clipped.Min)
					x1, y1 := g.CellOf(clipped.Max)
					if wide := x1 >= x0+2 && y1 >= y0+2; wide != (len(interior) > 0) {
						t.Fatalf("%T %v: spans cells %d..%d x %d..%d, interior %v", curve, query, x0, x1, y0, y1, interior)
					}
				}
				if len(interior) > 0 {
					interiors++
				}
				var lons, lats []float64
				for k := kx - 1; k <= kx+6; k++ {
					for _, mode := range []int{0, 1, 2, 3} {
						lons = append(lons, edge(extent.Min.Lon, cw, k, mode))
						lats = append(lats, edge(extent.Min.Lat, ch, ky+k-kx, mode))
					}
				}
				for _, v := range []float64{query.Min.Lon, query.Max.Lon} {
					lons = append(lons, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
				}
				for _, v := range []float64{query.Min.Lat, query.Max.Lat} {
					lats = append(lats, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
				}
				for _, lon := range lons {
					for _, lat := range lats {
						p := geo.Point{Lon: lon, Lat: lat}
						if in(interior, g.Encode(p)) &&
							!(p.Lon > query.Min.Lon && p.Lon < query.Max.Lon && p.Lat > query.Min.Lat && p.Lat < query.Max.Lat) {
							t.Fatalf("%T %v: point %v has interior cell %d but is not strictly inside", curve, query, p, g.Encode(p))
						}
					}
				}
			}
			if interiors < 50 {
				t.Fatalf("%T over %v: only %d of 400 rectangles had an interior", curve, extent, interiors)
			}
		}
	}
}
