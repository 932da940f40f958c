package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/storage"
)

// containedStore is a Hilbert store whose documents sit on a lattice of
// its grid: a quarter-cell lattice over a block of cells at a corner of
// the extent, so documents lie exactly on cell edges and query
// rectangles can run past the extent.
type containedStore struct {
	s      *Store
	cw, ch float64 // cell width and height
	x0, y0 int     // the block's first cell column and row
}

const (
	containedOrder = 5 // 32 x 32 cells: a few rectangles cover the block
	containedBlock = 6 // cells per block side
)

func openContainedStore(tb testing.TB, a Approach) containedStore {
	tb.Helper()
	s, err := Open(Config{
		Approach: a, Shards: 3, ChunkMaxBytes: 4 << 10, AutoBalanceEvery: 128,
		HilbertOrder: containedOrder, DataExtent: testExtent,
	})
	if err != nil {
		tb.Fatal(err)
	}
	ext := s.Grid().Extent()
	n := float64(s.Grid().Curve().Cells())
	cs := containedStore{s: s, cw: ext.Width() / n, ch: ext.Height() / n, y0: 1<<containedOrder - containedBlock}
	var recs []Record
	for i := 0; i < 4*containedBlock; i++ {
		for j := 0; j < 4*containedBlock; j++ {
			recs = append(recs, Record{
				Point: geo.Point{
					Lon: ext.Min.Lon + (float64(cs.x0)+float64(i)/4)*cs.cw,
					Lat: ext.Min.Lat + (float64(cs.y0)+float64(j)/4)*cs.ch,
				},
				Time:   testStart.Add(time.Duration((i*7+j*13)%48) * time.Hour),
				Fields: bson.D{{Key: "vehicleId", Value: int64((i + j) % 5)}},
			})
		}
	}
	if err := s.Load(recs); err != nil {
		tb.Fatal(err)
	}
	return cs
}

// query builds a rectangle from the input's choices: its corners on
// cell edges of the block (or up to two cells past it, where the grid
// extent clips them), one ulp inside or outside them, or a quarter cell
// in; 1-3 cells wide; and a time window over the documents' two days.
func (cs containedStore) query(r *fuzzBytes) STQuery {
	ext := cs.s.Grid().Extent()
	edge := func(min, size float64, k int) float64 {
		v := min + float64(k)*size
		switch r.byte() % 5 {
		case 1:
			return math.Nextafter(v, math.Inf(1))
		case 2:
			return math.Nextafter(v, math.Inf(-1))
		case 3:
			return v + size/4
		}
		return v
	}
	kx := cs.x0 - 2 + int(r.byte()%(containedBlock+2))
	ky := cs.y0 - 1 + int(r.byte()%(containedBlock+3))
	wx, wy := 1+int(r.byte()%3), 1+int(r.byte()%3)
	from := testStart.Add(time.Duration(r.byte()%24) * time.Hour)
	return STQuery{
		Rect: geo.Rect{
			Min: geo.Point{Lon: edge(ext.Min.Lon, cs.cw, kx), Lat: edge(ext.Min.Lat, cs.ch, ky)},
			Max: geo.Point{Lon: edge(ext.Min.Lon, cs.cw, kx+wx), Lat: edge(ext.Min.Lat, cs.ch, ky+wy)},
		},
		From: from,
		To:   from.Add(time.Duration(1+int(r.byte()%48)) * time.Hour),
	}
}

// containedVariants are the executions the differential runs each
// rectangle through: documents, a limit, a top-k, and the three
// aggregates.
func containedVariants(q STQuery, limit int) []STQuery {
	docs, lim, top, count, distinct, heat := q, q, q, q, q, q
	lim.Limit = limit
	top.Limit, top.Sort = limit, SortDateDesc
	count.Count = true
	distinct.Distinct = "vehicleId"
	heat.HeatmapBits = containedOrder - 1
	return []STQuery{docs, lim, top, count, distinct, heat}
}

// checkContained runs the query on every shard twice — skipping what
// interior keys prove, and refining every document — and requires
// byte-identical answers and counters, except that the skipping run may
// fetch and refine fewer documents. It returns how many fewer.
func checkContained(t *testing.T, s *Store, q STQuery) (saved, unrefined int) {
	t.Helper()
	p, err := s.plan(q)
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Cluster().Options().QueryConfig
	if cfg == nil || cfg.Contain == nil {
		t.Fatal("a Hilbert store supplies no containment")
	}
	for _, sh := range s.Cluster().Shards() {
		got := query.ExecuteOpts(sh.Coll, p.f, cfg, p.opts)
		want := query.ExecuteOpts(sh.Coll, p.f, nil, p.opts)
		if d := resultDiff(got, want); d != "" {
			t.Fatalf("%s shard %d, %+v: %s", s.cfg.Approach, sh.ID, q, d)
		}
		saved += want.Stats.DocsExamined - got.Stats.DocsExamined
		unrefined += want.Stats.DocsRefined - got.Stats.DocsRefined
	}
	return saved, unrefined
}

// checkInteriorBox holds the containment's box classification of every
// cell of the store's grid to membership in Grid.Interior's ranges for
// the rectangle.
func checkInteriorBox(t *testing.T, s *Store, rect geo.Rect) {
	t.Helper()
	contain := s.Cluster().Options().QueryConfig.Contain
	box, ok := contain.Interior(rect)
	ranges := s.Grid().Interior(rect)
	if ok != (len(ranges) > 0) {
		t.Fatalf("%v: the box exists %v, but Grid.Interior has %d ranges", rect, ok, len(ranges))
	}
	for d := uint64(0); d < s.Grid().Curve().Positions(); d++ {
		inRanges := false
		for _, r := range ranges {
			inRanges = inRanges || r.Contains(d)
		}
		if inBox := ok && box.Contains(contain.XY(d)); inBox != inRanges {
			t.Fatalf("%v: cell %d in the box %v, in Grid.Interior's ranges %v", rect, d, inBox, inRanges)
		}
	}
}

func resultDiff(got, want *query.Result) string {
	switch {
	case got.Stats.KeysExamined != want.Stats.KeysExamined || got.Stats.NReturned != want.Stats.NReturned:
		return fmt.Sprintf("keys/returned %d/%d, refining %d/%d",
			got.Stats.KeysExamined, got.Stats.NReturned, want.Stats.KeysExamined, want.Stats.NReturned)
	case got.Stats.DocsExamined > want.Stats.DocsExamined:
		return fmt.Sprintf("examined %d documents, refining %d", got.Stats.DocsExamined, want.Stats.DocsExamined)
	case (got.Agg == nil) != (want.Agg == nil) || got.Agg != nil && !got.Agg.Equal(want.Agg):
		return fmt.Sprintf("aggregate %+v, refining %+v", got.Agg, want.Agg)
	case len(got.Docs) != len(want.Docs) || len(got.Keys) != len(want.Keys):
		return fmt.Sprintf("%d docs / %d keys, refining %d / %d", len(got.Docs), len(got.Keys), len(want.Docs), len(want.Keys))
	}
	for i := range got.Docs {
		if !bytes.Equal(got.Docs[i], want.Docs[i]) {
			return fmt.Sprintf("doc %d differs", i)
		}
	}
	for i := range got.Keys {
		if !bytes.Equal(got.Keys[i], want.Keys[i]) {
			return fmt.Sprintf("sort key %d differs", i)
		}
	}
	return ""
}

// FuzzContainedCells holds interior-skipping execution to
// always-refine execution on hil and hil*, for documents, limit, top-k,
// count, distinct and heatmap, over rectangles whose edges sit on cell
// edges (or one ulp off them), 1-3 cells wide, some clipped by the grid
// extent, over documents that lie on cell edges too; and the
// containment's box classification of every cell to Grid.Interior's
// ranges.
func FuzzContainedCells(f *testing.F) {
	for i := 0; i < 24; i++ {
		// Every store, edge mode and width; the block's corner cells.
		f.Add([]byte{byte(i), byte(i), byte(i / 3), byte(i / 2), byte(i), byte(i / 5), byte(i % 3), byte(i / 4), byte(i), byte(i), byte(i), byte(i)})
	}
	f.Add([]byte{0, 0, 2, 1, 2, 2, 0, 0, 0, 0, 0, 47, 3})
	f.Add([]byte{1, 0, 0, 8, 2, 2, 0, 0, 0, 0, 0, 47, 9})
	stores := []containedStore{openContainedStore(f, Hil), openContainedStore(f, HilStar)}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzBytes{data: data}
		cs := stores[r.byte()%2]
		q := cs.query(r)
		checkInteriorBox(t, cs.s, q.Rect)
		for _, v := range containedVariants(q, 1+int(r.byte()%40)) {
			checkContained(t, cs.s, v)
		}
	})
}

// TestContainedCellsSkipRefines: on rectangles three cells wide with
// edges on cell edges, the differential sees interior documents — the
// fuzz's seeds are not vacuous — every execution refines fewer
// documents than the refining run, and only the aggregates that take
// their answer from the key fetch fewer.
func TestContainedCellsSkipRefines(t *testing.T) {
	for _, a := range []Approach{Hil, HilStar} {
		cs := openContainedStore(t, a)
		ext := cs.s.Grid().Extent()
		q := STQuery{
			Rect: geo.Rect{
				Min: geo.Point{Lon: ext.Min.Lon + float64(cs.x0+1)*cs.cw, Lat: ext.Min.Lat + float64(cs.y0+1)*cs.ch},
				Max: geo.Point{Lon: ext.Min.Lon + float64(cs.x0+4)*cs.cw, Lat: ext.Min.Lat + float64(cs.y0+4)*cs.ch},
			},
			From: testStart, To: testStart.Add(48 * time.Hour),
		}
		for _, v := range containedVariants(q, 7) {
			saved, unrefined := checkContained(t, cs.s, v)
			if keyOnly := v.Count || v.HeatmapBits > 0; keyOnly != (saved > 0) || unrefined <= 0 {
				t.Errorf("%s %+v: %d fewer documents examined, %d fewer refined", a, v, saved, unrefined)
			}
		}
	}
}

// TestIndexOnlyCountFetchesNoInteriorDocument: a count or a heatmap
// over a large interior fetches exactly the documents the refining run
// fetches minus every document in an interior cell — none of those is
// read — and answers the same.
func TestIndexOnlyCountFetchesNoInteriorDocument(t *testing.T) {
	s := openStore(t, HilStar, 4)
	if err := s.Load(testRecords(6000)); err != nil {
		t.Fatal(err)
	}
	q := STQuery{Rect: geo.NewRect(23.1, 37.1, 24.9, 38.9), From: testStart, To: testStart.Add(6000 * time.Minute)}
	interior := s.Grid().Interior(q.Rect)
	inInterior := func(raw bson.Raw) bool {
		v, _ := raw.LookupRaw(FieldHilbert)
		d, _ := v.Int64()
		for _, r := range interior {
			if r.Contains(uint64(d)) {
				return true
			}
		}
		return false
	}
	for _, v := range []STQuery{{Count: true}, {HeatmapBits: 6}} {
		v.Rect, v.From, v.To = q.Rect, q.From, q.To
		p, err := s.plan(v)
		if err != nil {
			t.Fatal(err)
		}
		cfg := s.Cluster().Options().QueryConfig
		total := 0
		for _, sh := range s.Cluster().Shards() {
			interiorDocs := 0
			sh.Coll.Store().Walk(func(_ storage.RecordID, raw []byte) bool {
				if inInterior(raw) {
					interiorDocs++
				}
				return true
			})
			got := query.ExecuteOpts(sh.Coll, p.f, cfg, p.opts)
			want := query.ExecuteOpts(sh.Coll, p.f, nil, p.opts)
			if d := resultDiff(got, want); d != "" {
				t.Fatalf("shard %d: %s", sh.ID, d)
			}
			if got.Stats.DocsExamined != want.Stats.DocsExamined-interiorDocs {
				t.Fatalf("shard %d: examined %d documents, want %d (refining) - %d (interior)",
					sh.ID, got.Stats.DocsExamined, want.Stats.DocsExamined, interiorDocs)
			}
			total += interiorDocs
		}
		if total < 4000 {
			t.Fatalf("only %d of 6000 documents lie in interior cells", total)
		}
	}
}
