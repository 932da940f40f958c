package sharding

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/btree"
	"repro/internal/collection"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/sfc"
)

// frontEndFixture is what FuzzFrontEnd plans and routes against: a
// collection carrying the store's index shapes (plus a string-led
// compound one), and three loaded clusters — range-sharded on
// {hilbertIndex, date} with sketch summaries, range-sharded on {date},
// and hash-sharded on hilbertIndex — over documents whose hilbertIndex
// lies in [0, 4096).
type frontEndFixture struct {
	coll     *collection.Collection
	clusters []*Cluster
	grids    []*sfc.Grid
}

func newFrontEndFixture(tb testing.TB) *frontEndFixture {
	fx := &frontEndFixture{coll: collection.New("plan")}
	for _, def := range []index.Definition{
		{Name: "hd", Fields: []index.Field{{Name: "hilbertIndex", Kind: index.Ascending}, {Name: "date", Kind: index.Ascending}}},
		{Name: "st", Fields: []index.Field{{Name: "location", Kind: index.Geo2DSphere}, {Name: "date", Kind: index.Ascending}}},
		{Name: "ts", Fields: []index.Field{{Name: "date", Kind: index.Ascending}, {Name: "location", Kind: index.Geo2DSphere}}},
		{Name: "sh", Fields: []index.Field{{Name: "s", Kind: index.Ascending}, {Name: "hilbertIndex", Kind: index.Ascending}}},
	} {
		if _, err := fx.coll.CreateIndex(def); err != nil {
			tb.Fatal(err)
		}
	}
	summarised := smallOpts()
	summarised.SummaryShift = 4
	for _, tc := range []struct {
		key  ShardKey
		opts Options
	}{
		{hilbertDateKey(), summarised},
		{ShardKey{Fields: []string{"date"}}, smallOpts()},
		{ShardKey{Fields: []string{"hilbertIndex"}, Strategy: HashedSharding}, smallOpts()},
	} {
		c, _ := loadCluster(tb, 1500, tc.key, tc.opts)
		fx.clusters = append(fx.clusters, c)
	}
	hil6, err := sfc.NewHilbert(6)
	if err != nil {
		tb.Fatal(err)
	}
	hil13, err := sfc.NewHilbert(13)
	if err != nil {
		tb.Fatal(err)
	}
	for _, g := range []struct {
		curve  sfc.Curve
		extent geo.Rect
	}{
		{hil6, geo.World}, // cells of the fixture's documents
		{hil6, geo.NewRect(23.0, 37.0, 25.0, 39.0)}, // a hil* extent
		{hil13, geo.World},                          // the paper's hil
	} {
		grid, err := sfc.NewGrid(g.curve, g.extent)
		if err != nil {
			tb.Fatal(err)
		}
		fx.grids = append(fx.grids, grid)
	}
	return fx
}

// fuzzInput draws choices from the fuzzer's bytes, zeros once spent.
type fuzzInput struct{ b []byte }

func (in *fuzzInput) intn(n int) int {
	if len(in.b) == 0 {
		return 0
	}
	c := in.b[0]
	in.b = in.b[1:]
	return int(c) % n
}

// unit is a number in [0, 1) from two bytes.
func (in *fuzzInput) unit() float64 { return float64(in.intn(256)<<8|in.intn(256)) / 65536 }

var frontEndFields = []string{"hilbertIndex", "date", "s"}

// value is a constant of one of the classes filters carry, near the
// fixture's data where the class has any.
func (in *fuzzInput) value() any {
	switch in.intn(11) {
	case 0:
		return int64(in.intn(256) * 16)
	case 1:
		return float64(in.intn(256)*16) + 0.5
	case 2:
		return [...]float64{math.Inf(-1), math.Inf(1), math.NaN(), -0.25}[in.intn(4)]
	case 3:
		return string(rune('a' + in.intn(5)))
	case 4:
		return baseTime.Add(time.Duration(in.intn(40)-5) * 24 * time.Hour)
	case 5:
		return in.intn(2) == 1
	case 6:
		return nil
	case 7:
		return int32(in.intn(4096))
	case 8:
		return in.intn(4096)
	case 9:
		return bson.ObjectID{byte(in.intn(256))}
	default:
		return [...]any{bson.MinKey, bson.MaxKey}[in.intn(2)]
	}
}

// rect is a query rectangle: around the fixture's data, anywhere on
// the globe, or within a few hundred metres of the origin.
func (in *fuzzInput) rect() geo.Rect {
	switch in.intn(4) {
	case 0:
		lon, lat := in.unit()*360-180, in.unit()*180-90
		return geo.NewRect(lon, lat, lon+in.unit()*40, lat+in.unit()*20)
	case 1:
		lon, lat := (in.unit()-0.5)*0.004, (in.unit()-0.5)*0.004
		return geo.NewRect(lon, lat, lon+in.unit()*0.003, lat+in.unit()*0.003)
	default:
		lon, lat := 22.5+3*in.unit(), 36.5+3*in.unit()
		return geo.NewRect(lon, lat, lon+in.unit()*in.unit()*2, lat+in.unit()*in.unit()*2)
	}
}

// filter is a random tree of comparisons and $in over 1–3 fields,
// $and, $or and $geoWithin.
func (in *fuzzInput) filter(fields []string, depth int) query.Filter {
	kinds := 6
	if depth >= 3 {
		kinds = 3
	}
	switch in.intn(kinds) {
	case 0, 1:
		return query.Cmp{Field: fields[in.intn(len(fields))], Op: query.CmpOp(in.intn(5)), Value: in.value()}
	case 2:
		values := make([]any, in.intn(5))
		for i := range values {
			values[i] = in.value()
		}
		return query.In{Field: fields[in.intn(len(fields))], Values: values}
	case 3:
		children := make([]query.Filter, in.intn(4))
		for i := range children {
			children[i] = in.filter(fields, depth+1)
		}
		return query.And{Children: children}
	case 4:
		children := make([]query.Filter, in.intn(4))
		for i := range children {
			children[i] = in.filter(fields, depth+1)
		}
		return query.Or{Children: children}
	default:
		return query.GeoWithin{Field: "location", Rect: in.rect()}
	}
}

// coverFilter is the Hilbert approaches' query (Section 4.2.2) over a
// cover: the rectangle, a date window and the hilbertIndex constraint
// — $gte/$lte arms, one $in of the single cells, an impossible pair
// for an empty cover.
func coverFilter(rect geo.Rect, from, to time.Time, ranges []sfc.Range) query.Filter {
	var arms []query.Filter
	var singles []any
	for _, r := range ranges {
		if r.Lo == r.Hi {
			singles = append(singles, int64(r.Lo))
			continue
		}
		arms = append(arms, hilbertRange(int64(r.Lo), int64(r.Hi)))
	}
	if len(singles) > 0 {
		arms = append(arms, query.In{Field: "hilbertIndex", Values: singles})
	}
	constraint := query.Filter(query.NewOr(arms...))
	if len(arms) == 0 {
		constraint = query.NewAnd(
			query.Cmp{Field: "hilbertIndex", Op: query.OpGT, Value: int64(0)},
			query.Cmp{Field: "hilbertIndex", Op: query.OpLT, Value: int64(0)},
		)
	}
	return query.NewAnd(
		query.GeoWithin{Field: "location", Rect: rect},
		query.TimeRangeFilter("date", from, to),
		constraint,
	)
}

// frontEndFilter decodes one fuzz input into a filter: a random tree, a
// conjunction of random leaves, or a Hilbert cover of a random
// rectangle (on the fixture's data, a hil* extent or the paper's
// curve; coalesced or not).
func (fx *frontEndFixture) frontEndFilter(in *fuzzInput) query.Filter {
	fields := frontEndFields[:1+in.intn(len(frontEndFields))]
	switch in.intn(3) {
	case 0:
		return in.filter(fields, 0)
	case 1:
		children := make([]query.Filter, 1+in.intn(5))
		for i := range children {
			children[i] = in.filter(fields, 2)
		}
		return query.NewAnd(children...)
	default:
		rect := in.rect()
		ranges := fx.grids[in.intn(len(fx.grids))].Cover(rect)
		if in.intn(3) == 0 {
			ranges = sfc.CoalesceRanges(ranges, 1+in.intn(16))
		}
		from := baseTime.Add(time.Duration(in.intn(30*24)) * time.Hour)
		return coverFilter(rect, from, from.Add(time.Duration(in.intn(10*24))*time.Hour), ranges)
	}
}

// sameValue reports whether two interval ends are the same constant:
// same type, same value (NaN included).
func sameValue(a, b any) bool { return fmt.Sprintf("%T %#v", a, a) == fmt.Sprintf("%T %#v", b, b) }

func sameIntervals(a, b []query.ValueInterval) bool {
	return slices.EqualFunc(a, b, func(x, y query.ValueInterval) bool {
		return sameValue(x.Lo, y.Lo) && sameValue(x.Hi, y.Hi) && x.LoIncl == y.LoIncl && x.HiIncl == y.HiIncl
	})
}

func sameBound(a, b btree.Bound) bool {
	return a.Inclusive == b.Inclusive && a.Unbounded == b.Unbounded && bytes.Equal(a.Key, b.Key) && (a.Key == nil) == (b.Key == nil)
}

func sameSegments(a, b []query.Segment) bool {
	return slices.EqualFunc(a, b, func(x, y query.Segment) bool {
		return sameBound(x.Interval.Low, y.Interval.Low) && sameBound(x.Interval.High, y.Interval.High) &&
			bytes.Equal(x.SubLo, y.SubLo) && (x.SubLo == nil) == (y.SubLo == nil) &&
			bytes.Equal(x.SubHiUpper, y.SubHiUpper) && (x.SubHiUpper == nil) == (y.SubHiUpper == nil)
	})
}

// checkFrontEnd holds the router front end to the reference on one
// filter: bounds (intervals, exactness, rectangles, impossibility),
// plan-cache shape, every index's segments and residual, and each
// cluster's targets, broadcast flag and pruned shards.
func (fx *frontEndFixture) checkFrontEnd(t *testing.T, f query.Filter) {
	ref := refExtractBounds(f)
	got := query.BoundsOf(f)
	if got.Impossible() != ref.impossible {
		t.Fatalf("%s: impossible = %v, reference %v", f, got.Impossible(), ref.impossible)
	}
	for _, field := range append(frontEndFields, "location", "_id") {
		rset, rok := ref.intervals[field]
		gset, gok := got.Intervals(field)
		if rok != gok || !sameIntervals(gset, rset) {
			t.Fatalf("%s: %s intervals %v (%v), reference %v (%v)", f, field, gset, gok, rset, rok)
		}
		if got.Exact(field) != ref.exact[field] {
			t.Fatalf("%s: %s exact = %v, reference %v", f, field, got.Exact(field), ref.exact[field])
		}
		rr, rok := ref.geoRects[field]
		gr, gok := got.GeoRect(field)
		if rok != gok || rr != gr {
			t.Fatalf("%s: %s rectangle %v (%v), reference %v (%v)", f, field, gr, gok, rr, rok)
		}
	}

	want := refShapeOf(f)
	if got := query.ShapeOf(f); got != want {
		t.Fatalf("shape\n got %s\nwant %s", got, want)
	}
	if got := query.ShapeOf(query.Prepare(f)); got != want {
		t.Fatalf("prepared shape\n got %s\nwant %s", got, want)
	}

	plans := query.CandidatePlans(fx.coll, f)
	if ref.impossible {
		if len(plans) != 1 || len(plans[0].Segments) != 0 {
			t.Fatalf("%s: an impossible filter planned %d plans", f, len(plans))
		}
	} else {
		type refPlan struct {
			name     string
			segs     []query.Segment
			residual string
		}
		var wantPlans []refPlan
		for _, ix := range fx.coll.Indexes() {
			if segs, covered, usable := refPlanSegments(ix, ref); usable {
				wantPlans = append(wantPlans, refPlan{ix.Spec(), segs, refResidualFilter(f, covered).String()})
			}
		}
		if len(wantPlans) == 0 {
			wantPlans = append(wantPlans, refPlan{query.CollScanName, nil, f.String()})
		}
		if len(plans) != len(wantPlans) {
			t.Fatalf("%s: %d candidate plans, reference %d", f, len(plans), len(wantPlans))
		}
		for i, p := range plans {
			w := wantPlans[i]
			if p.Name() != w.name || !sameSegments(p.Segments, w.segs) || p.Filter.String() != w.residual {
				t.Fatalf("%s: plan %d is %s over %d segments refining %s; reference %s over %d refining %s",
					f, i, p.Name(), len(p.Segments), p.Filter, w.name, len(w.segs), w.residual)
			}
		}
	}

	for ci, c := range fx.clusters {
		c.mu.RLock()
		wantT, wantB, wantP := c.refRouteLocked(f)
		c.mu.RUnlock()
		for _, q := range []query.Filter{f, query.Prepare(f)} {
			gotT, gotB, gotP := c.Route(q)
			if !slices.Equal(gotT, wantT) || gotB != wantB || !slices.Equal(gotP, wantP) {
				t.Fatalf("%s on cluster %d (%s): routed to %v (broadcast %v, pruned %v), reference %v (%v, %v)",
					f, ci, c.key, gotT, gotB, gotP, wantT, wantB, wantP)
			}
		}
	}
}

// FuzzFrontEnd is the differential fuzz of the router's per-query front
// end against the implementation it replaced (frontend_ref_test.go):
// random comparison/$in conjunctions and disjunctions over one to three
// fields with mixed classes and open or closed ends, and Hilbert covers
// of random rectangles (hil and hil* grids, empty covers included),
// planned against every index shape and routed over range- and
// hash-sharded clusters.
func FuzzFrontEnd(f *testing.F) {
	fx := newFrontEndFixture(f)
	for _, seed := range [][]byte{
		{},
		{0, 0, 3, 0, 1, 0, 3, 1, 0, 4},
		{2, 0, 1, 3, 2, 0, 0, 1, 2, 3, 4, 5, 0, 1, 2, 3},
		{2, 2, 1, 0, 0, 200, 9, 40, 7, 1, 5},
		{2, 2, 2, 1, 3, 50, 60, 70, 80, 2, 1, 0},
		{2, 2, 2, 0, 10, 20, 30, 40, 50, 60, 70, 80},
		{0, 2, 4, 3, 0, 1, 4, 2, 1, 2, 0, 0, 1, 3, 2, 7, 3, 5},
		{1, 1, 4, 0, 1, 0, 5, 1, 3, 0, 7, 8, 1, 2, 4, 4, 3},
		{0, 1, 3, 3, 2, 2, 3, 0, 0, 4, 1, 1, 9, 2, 4, 1, 8},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzInput{b: data}
		fx.checkFrontEnd(t, fx.frontEndFilter(in))
	})
}
