package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/sfc"
	"repro/internal/wire"
)

// TestFrontEndAllocsIndependentOfCoverSize guards the router's
// per-query front end on the stage-budget hil store. Preparing a
// filter, routing it and probing the result cache must allocate the
// same whether its cover has 2, 12 or 60 ranges: the bounds, the tuple
// keys and the cache key each live in one buffer. And a warm cache hit
// of a Q^b-sized rectangle through Store.Query — cover, filter and the
// result included — stays under 150 allocations.
func TestFrontEndAllocsIndependentOfCoverSize(t *testing.T) {
	s := openStageStore(t, Hil)
	var allocs []float64
	var hit STQuery
	for _, tc := range []struct {
		rect   geo.Rect
		lo, hi int // cover ranges
	}{
		{geo.NewRect(23.3, 37.3, 23.33, 37.32), 1, 4},
		{geo.NewRect(23.3, 37.3, 23.3+0.4267, 37.3+0.33), 10, 20},
		{geo.NewRect(23.6, 38.0, 25.2, 39.3), 45, 80},
	} {
		q := STQuery{Rect: tc.rect, From: testStart, To: testStart.Add(7 * 24 * time.Hour), Count: true}
		p, err := s.plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if n := p.cover.Ranges; n < tc.lo || n > tc.hi {
			t.Fatalf("%v covers in %d ranges, want %d..%d", tc.rect, n, tc.lo, tc.hi)
		}
		s.run(p) // fill the result cache
		n := testing.AllocsPerRun(200, func() {
			if !s.cluster.QueryOpts(p.f, p.opts).CacheHit {
				t.Fatal("warm query missed the result cache")
			}
		})
		t.Logf("%d ranges: %.1f allocations to prepare, route and probe", p.cover.Ranges, n)
		allocs = append(allocs, n)
		if tc.lo == 10 {
			hit = q
		}
	}
	for _, n := range allocs[1:] {
		if d := n - allocs[0]; d > 4 || d < -4 {
			t.Errorf("prepare, route and probe allocate %v over covers of 2, 12 and 60 ranges: not independent of the cover", allocs)
		}
	}
	n := testing.AllocsPerRun(200, func() { s.Query(hit) })
	t.Logf("warm Q^b-sized hit through Store.Query: %.1f allocations", n)
	if n > 150 {
		t.Errorf("a warm result-cache hit allocates %.0f objects, want at most 150", n)
	}
}

// refHilbertConstraint is HilbertConstraint as it was built node by
// node: the reference its shared-array construction is held to.
func refHilbertConstraint(ranges []sfc.Range) query.Filter {
	var arms []query.Filter
	var singles []any
	for _, r := range ranges {
		if r.Lo == r.Hi {
			singles = append(singles, int64(r.Lo))
			continue
		}
		arms = append(arms, query.NewAnd(
			query.Cmp{Field: FieldHilbert, Op: query.OpGTE, Value: int64(r.Lo)},
			query.Cmp{Field: FieldHilbert, Op: query.OpLTE, Value: int64(r.Hi)},
		))
	}
	if len(singles) > 0 {
		arms = append(arms, query.In{Field: FieldHilbert, Values: singles})
	}
	if len(arms) == 0 {
		return query.NewAnd(
			query.Cmp{Field: FieldHilbert, Op: query.OpGT, Value: int64(0)},
			query.Cmp{Field: FieldHilbert, Op: query.OpLT, Value: int64(0)},
		)
	}
	return query.NewOr(arms...)
}

// TestHilbertConstraintTreeUnchanged: the constraint of any cover — hil
// and hil* grids, random rectangles, the empty cover — is the same tree
// as the reference's, node for node, so its String() and wire bytes are
// too.
func TestHilbertConstraintTreeUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	covers := [][]sfc.Range{nil, {{Lo: 7, Hi: 7}}, {{Lo: 1, Hi: 4}}}
	for _, a := range []Approach{Hil, HilStar} {
		g := openStore(t, a, 2).Grid()
		for i := 0; i < 300; i++ {
			lon, lat := 22.5+3*rng.Float64(), 36.5+3*rng.Float64()
			w, h := rng.Float64()*rng.Float64(), rng.Float64()*rng.Float64()
			covers = append(covers, g.Cover(geo.NewRect(lon, lat, lon+w, lat+h)))
		}
	}
	for i, ranges := range covers {
		got, want := HilbertConstraint(ranges), refHilbertConstraint(ranges)
		if !reflect.DeepEqual(got, want) || got.String() != want.String() {
			t.Fatalf("cover %d (%d ranges): tree differs:\n got %s\nwant %s", i, len(ranges), got, want)
		}
		gotWire, err := wire.AppendFilter(nil, got)
		if err != nil {
			t.Fatal(err)
		}
		if wantWire, _ := wire.AppendFilter(nil, want); !bytes.Equal(gotWire, wantWire) {
			t.Fatalf("cover %d: wire bytes differ", i)
		}
	}
}
