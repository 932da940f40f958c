package sharding

import (
	"bytes"
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
	"repro/internal/sthash"
	"repro/internal/storage"
)

// frontEndFixture is what FuzzFrontEnd plans and routes against: a
// collection carrying the store's index shapes (plus a date-led
// compound one over the cells), and three loaded clusters — range-sharded on
// {hilbertIndex, date} with chunk cells, range-sharded on {date}, and
// hash-sharded on hilbertIndex — over documents whose hilbertIndex
// lies in [0, 4096). docs holds each cluster's stored documents,
// decoded once, for the reference's pruning scan.
type frontEndFixture struct {
	coll     *collection.Collection
	clusters []*Cluster
	docs     [][]scannedDoc
	grids    []*sfc.Grid
}

// scannedDoc is one stored document as the pruning scan sees it: its
// shard, its decoded shard-key tuple and its coarse cell (ok false when
// it has none).
type scannedDoc struct {
	shard int
	tuple []byte
	cell  uint64
	ok    bool
}

// scanDocs decodes every document the cluster stores.
func scanDocs(tb testing.TB, c *Cluster) []scannedDoc {
	var out []scannedDoc
	for sid, s := range c.Shards() {
		s.Coll.Store().Walk(func(_ storage.RecordID, raw []byte) bool {
			doc, err := bson.Unmarshal(raw)
			if err != nil {
				tb.Fatal(err)
			}
			cell, ok := refSummaryCell(doc, c.key.Fields[0], c.opts.SummaryShift)
			out = append(out, scannedDoc{shard: sid, tuple: c.key.TupleOf(doc), cell: cell, ok: ok})
			return true
		})
	}
	return out
}

// occupiedBy reports, by a scan of the documents, whether the chunk
// holds a document in the coarse cells of the ranges, or one without a
// cell.
func occupiedBy(docs []scannedDoc, ranges []sfc.Range, shift int) func(*Chunk) bool {
	return func(ch *Chunk) bool {
		for _, d := range docs {
			if d.shard != ch.Shard || !ch.Contains(d.tuple) {
				continue
			}
			if !d.ok {
				return true
			}
			for _, r := range ranges {
				if r.Lo>>shift <= d.cell && d.cell <= r.Hi>>shift {
					return true
				}
			}
		}
		return false
	}
}

func newFrontEndFixture(tb testing.TB) *frontEndFixture {
	fx := &frontEndFixture{coll: collection.New("plan")}
	for _, def := range []index.Definition{
		{Name: "hd", Fields: []index.Field{{Name: "hilbertIndex", Kind: index.Ascending}, {Name: "date", Kind: index.Ascending}}},
		{Name: "st", Fields: []index.Field{{Name: "location", Kind: index.Geo2DSphere}, {Name: "date", Kind: index.Ascending}}},
		{Name: "ts", Fields: []index.Field{{Name: "date", Kind: index.Ascending}, {Name: "location", Kind: index.Geo2DSphere}}},
		{Name: "dh", Fields: []index.Field{{Name: "date", Kind: index.Ascending}, {Name: "hilbertIndex", Kind: index.Ascending}}},
		{Name: "sth", Fields: []index.Field{{Name: "stHash", Kind: index.Ascending}}},
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
		fx.docs = append(fx.docs, scanDocs(tb, c))
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

// frontEndSpec decodes one fuzz input into a spec: a random rectangle
// and window (inverted ones included) and no key constraint, a Hilbert
// cover (on the fixture's data, a hil* extent or the paper's curve;
// coalesced or not; empty ones included), or an ST-Hash cover. ranges
// are the Hilbert cover's (nil when there is none), the only constraint
// the router prunes on.
func (fx *frontEndFixture) frontEndSpec(in *fuzzInput) (s *query.Spec, ranges []sfc.Range) {
	s = &query.Spec{Rect: in.rect()}
	s.From = baseTime.Add(time.Duration(in.intn(40*24)-5*24) * time.Hour)
	s.To = s.From.Add(time.Duration(in.intn(12*24)-24) * time.Hour)
	switch in.intn(3) {
	case 0:
	case 1:
		s.Key = query.HilbertKey
		s.Cells = fx.grids[in.intn(len(fx.grids))].Cover(s.Rect)
		if in.intn(3) == 0 {
			s.Cells = sfc.CoalesceRanges(s.Cells, 1+in.intn(16))
		}
		ranges = s.Cells
	default:
		s.Key = query.STHashKey
		e := sthash.Encoder{SpatialChars: 1 + in.intn(6)}
		s.Strings = e.Cover(s.Rect, s.From, s.To, 1+in.intn(64))
	}
	return s, ranges
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
// spec: impossibility, plan-cache shape, every index's segments and
// residual, and each cluster's targets, broadcast flag and pruned
// shards. A shard is pruned exactly when the overlap test targets it,
// the spec's Hilbert cells constrain the leading shard-key field of a
// cluster keeping chunk cells, and no overlapping chunk of it holds a
// document in the cells' coarse cells, by a scan.
func (fx *frontEndFixture) checkFrontEnd(t *testing.T, s *query.Spec, ranges []sfc.Range) {
	ref := refBoundsOf(s)
	if s.Impossible() != ref.impossible {
		t.Fatalf("%s: impossible = %v, reference %v", s, s.Impossible(), ref.impossible)
	}
	// The shape keeps the rectangle and the key field, not the window
	// or the cover.
	other := *s
	other.From, other.To, other.Cells, other.Strings = anyFrom, anyTo, nil, nil
	if got, want := query.ShapeOf(s), query.ShapeOf(&other); got != want || query.ShapeOf(query.Prepare(s)) != want {
		t.Fatalf("shape\n got %s\nwant %s", got, want)
	}
	other.Rect.Max.Lon++
	if query.ShapeOf(&other) == query.ShapeOf(s) {
		t.Fatalf("shape %s ignores the rectangle", query.ShapeOf(s))
	}
	if got, want := s.String(), refRender(s, nil); got != want {
		t.Fatalf("rendering\n got %s\nwant %s", got, want)
	}

	plans := query.CandidatePlans(fx.coll, s)
	if ref.impossible {
		if len(plans) != 1 || len(plans[0].Segments) != 0 {
			t.Fatalf("%s: an impossible spec planned %d plans", s, len(plans))
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
				wantPlans = append(wantPlans, refPlan{ix.Spec(), segs, refRender(s, covered)})
			}
		}
		if len(wantPlans) == 0 {
			wantPlans = append(wantPlans, refPlan{query.CollScanName, nil, refRender(s, nil)})
		}
		if len(plans) != len(wantPlans) {
			t.Fatalf("%s: %d candidate plans, reference %d", s, len(plans), len(wantPlans))
		}
		for i, p := range plans {
			w := wantPlans[i]
			if p.Name() != w.name || !sameSegments(p.Segments, w.segs) || p.Filter.String() != w.residual {
				t.Fatalf("%s: plan %d is %s over %d segments refining %s; reference %s over %d refining %s",
					s, i, p.Name(), len(p.Segments), p.Filter, w.name, len(w.segs), w.residual)
			}
		}
	}

	for ci, c := range fx.clusters {
		c.mu.RLock()
		var occupied func(*Chunk) bool
		if ranges != nil && c.summariesOnLocked() && c.key.Fields[0] == "hilbertIndex" {
			occupied = occupiedBy(fx.docs[ci], ranges, c.opts.SummaryShift)
		}
		wantT, wantB, wantP := c.refRouteLocked(s, occupied)
		c.mu.RUnlock()
		for _, q := range []query.Filter{s, query.Prepare(s)} {
			gotT, gotB, gotP := c.Route(q)
			if !slices.Equal(gotT, wantT) || gotB != wantB || !slices.Equal(gotP, wantP) {
				t.Fatalf("%s on cluster %d (%s): routed to %v (broadcast %v, pruned %v), reference %v (%v, %v)",
					s, ci, c.key, gotT, gotB, gotP, wantT, wantB, wantP)
			}
		}
	}
}

// FuzzFrontEnd is the differential fuzz of the router's per-query front
// end against the boxed reference (frontend_ref_test.go): specs of
// random rectangles and windows, without a key constraint, with the
// Hilbert covers of hil and hil* grids (coalesced or not, empty covers
// included) or with ST-Hash covers, planned against every index shape
// and routed over range- and hash-sharded clusters, the pruned shards
// held to a scan of the documents.
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
		s, ranges := fx.frontEndSpec(&fuzzInput{b: data})
		fx.checkFrontEnd(t, s, ranges)
	})
}
