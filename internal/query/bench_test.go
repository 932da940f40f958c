package query

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/collection"
	"repro/internal/geo"
	"repro/internal/index"
)

// The per-layer micro-benchmarks of the read path (ROADMAP item 1):
// what refining, planning, sort-keying and aggregating one document or
// one query costs, in ns and allocations. Run with
//
//	go test ./internal/query -run '^$' -bench 'RefineRaw|WarmPlan|SortKeyRaw|AggAccumulate' -benchmem

// benchRawDocs encodes n fleet-shaped documents of the size the
// repository benchmark stores (~460 B: the four indexed fields first,
// sixteen payload fields behind them).
func benchRawDocs(n int) []bson.Raw {
	gen := bson.NewObjectIDGen(1)
	docs := make([]bson.Raw, n)
	for i := range docs {
		at := baseTime.Add(time.Duration(i) * time.Minute)
		d := bson.FromD(bson.D{
			{Key: "_id", Value: gen.New(at)},
			{Key: "location", Value: geo.GeoJSONPoint(geo.Point{
				Lon: testArea.Min.Lon + float64(i%97)/97*testArea.Width(),
				Lat: testArea.Min.Lat + float64(i%89)/89*testArea.Height(),
			})},
			{Key: "date", Value: at},
			{Key: "hilbertIndex", Value: int64(1_000_000 + i*37)},
		})
		for k := 0; k < 16; k++ {
			switch k % 4 {
			case 0:
				d.Set(fmt.Sprintf("metric%02d", k), float64(i)*0.25)
			case 1:
				d.Set(fmt.Sprintf("count%02d", k), int64(i%50))
			case 2:
				d.Set(fmt.Sprintf("label%02d", k), "GRC-"+fmt.Sprint(i%40))
			default:
				d.Set(fmt.Sprintf("flag%02d", k), i%2 == 0)
			}
		}
		d.Set("vehicleId", int64(i%40))
		docs[i] = bson.Marshal(d)
	}
	return docs
}

var benchSink bool

// BenchmarkRefineRaw measures refining one fetched document with the
// residual predicates the planner leaves: the Hilbert approach's (the
// rectangle alone — cell ranges and dates are covered by the index
// bounds), the bslST baseline's (rectangle and both date comparisons)
// and a polygon. "scan" hands the filter the executor's *bson.Raw;
// "boxed" converts each document to bson.Doc the way an outside caller
// (benchmark/trace.go's bson.match_ns_per_doc) does, which costs the
// one allocation shown.
func BenchmarkRefineRaw(b *testing.B) {
	docs := benchRawDocs(1024)
	rect := geo.NewRect(23.7, 37.7, 24.3, 38.3)
	poly, err := geo.NewPolygon(
		geo.Point{Lon: 23.7, Lat: 37.7}, geo.Point{Lon: 24.3, Lat: 37.8},
		geo.Point{Lon: 24.1, Lat: 38.3}, geo.Point{Lon: 23.8, Lat: 38.2},
	)
	if err != nil {
		b.Fatal(err)
	}
	dates := TimeRangeFilter("date", baseTime.Add(2*time.Hour), baseTime.Add(12*time.Hour))
	residuals := []struct {
		name string
		f    Filter
	}{
		{"hil", NewAnd(GeoWithin{Field: "location", Rect: rect})},
		{"bslST", NewAnd(GeoWithin{Field: "location", Rect: rect}, dates)},
		{"polygon", NewAnd(GeoWithinPolygon{Field: "location", Polygon: poly})},
	}
	for _, r := range residuals {
		f := compile(r.f)
		b.Run(r.name+"/scan", func(b *testing.B) {
			b.ReportAllocs()
			var doc bson.Raw
			for i := 0; i < b.N; i++ {
				doc = docs[i%len(docs)]
				benchSink = f.Matches(&doc)
			}
		})
		b.Run(r.name+"/boxed", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = f.Matches(docs[i%len(docs)])
			}
		})
	}
}

// hilbertCover is the filter shape core.Store.Filter builds for the
// Hilbert approach: rectangle, date window, and a 13-arm $or over the
// curve ranges (12 ranges plus one $in of single cells).
func hilbertCover(rect geo.Rect, from, to time.Time) Filter {
	var arms []Filter
	for i := int64(0); i < 12; i++ {
		arms = append(arms, NewAnd(
			Cmp{Field: "hilbertIndex", Op: OpGTE, Value: 1_000_000 + i*3000},
			Cmp{Field: "hilbertIndex", Op: OpLTE, Value: 1_000_000 + i*3000 + 1500},
		))
	}
	arms = append(arms, In{Field: "hilbertIndex", Values: []any{int64(1), int64(2), int64(3)}})
	return NewAnd(GeoWithin{Field: "location", Rect: rect}, TimeRangeFilter("date", from, to), NewOr(arms...))
}

func benchHilbertColl(b testing.TB, docs []bson.Raw) *collection.Collection {
	c := collection.New("bench")
	for _, raw := range docs {
		d, err := raw.Decode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Insert(d); err != nil {
			b.Fatal(err)
		}
	}
	mustIndex(b, c, index.Definition{Name: "hd", Fields: []index.Field{
		{Name: "hilbertIndex", Kind: index.Ascending},
		{Name: "date", Kind: index.Ascending},
	}})
	return c
}

var benchPlan *Plan

// BenchmarkWarmPlan measures one shard's plan-cache hit for a 13-range
// cover: "bare" is an execution handed the plain filter (shape, bounds,
// segments and residual derived on the spot — what every shard did
// before the scatter prepared its filter), "prepared" is the second
// and later shards of a scatter.
func BenchmarkWarmPlan(b *testing.B) {
	c := benchHilbertColl(b, benchRawDocs(2048))
	f := hilbertCover(geo.NewRect(23.7, 37.7, 24.3, 38.3), baseTime, baseTime.Add(24*time.Hour))
	Execute(c, f, nil) // remember the winner
	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchPlan, _, _, _ = cachedPlan(c, Prepare(f))
		}
	})
	b.Run("prepared", func(b *testing.B) {
		p := Prepare(f)
		cachedPlan(c, p)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchPlan, _, _, _ = cachedPlan(c, p)
		}
	})
}

var benchKey []byte

// BenchmarkSortKeyRaw measures encoding one document's top-k sort key
// from its stored bytes.
func BenchmarkSortKeyRaw(b *testing.B) {
	docs := benchRawDocs(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchKey = appendSortKey(benchKey[:0], docs[i%len(docs)], "date")
	}
}

// BenchmarkAggAccumulate measures folding one matching document into
// each pushed-down aggregate (warm: every distinct value and cell has
// been seen).
func BenchmarkAggAccumulate(b *testing.B) {
	docs := benchRawDocs(1024)
	for _, spec := range []AggSpec{
		{Kind: AggCount},
		{Kind: AggDistinct, Field: "vehicleId"},
		{Kind: AggCellHist, Field: "hilbertIndex", Shift: 8},
	} {
		b.Run(spec.Kind.String(), func(b *testing.B) {
			var acc aggAcc
			for _, d := range docs {
				acc.accumulate(d, spec)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc.accumulate(docs[i%len(docs)], spec)
			}
		})
	}
}

// BenchmarkScanRefine1000 measures the executor's inner loop end to
// end: warm geo+date ranges over a 100 k-document collection (44 MiB of
// records, inserted in shuffled order so an index range's records are
// scattered over it the way a balanced shard's are), each examining
// 1 000 documents through the {hilbertIndex, date} skip-scan and
// refining every one with $geoWithin. The windows rotate over the whole
// collection so no cache level holds the records between visits.
// Reported per examined document; the only allocations are the
// result's.
func BenchmarkScanRefine1000(b *testing.B) {
	const n, window = 100_000, 1000
	docs := benchRawDocs(n)
	rand.New(rand.NewSource(7)).Shuffle(n, func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
	c := collection.New("bench")
	mustIndex(b, c, index.Definition{Name: "hd", Fields: []index.Field{
		{Name: "hilbertIndex", Kind: index.Ascending},
		{Name: "date", Kind: index.Ascending},
	}})
	for _, raw := range docs {
		if _, err := c.InsertRaw(raw); err != nil {
			b.Fatal(err)
		}
	}
	filters := make([]Filter, n/window)
	for w := range filters {
		filters[w] = NewAnd(
			GeoWithin{Field: "location", Rect: geo.NewRect(23.7, 37.7, 24.3, 38.3)},
			TimeRangeFilter("date", baseTime, baseTime.Add(n*time.Minute)),
			Cmp{Field: "hilbertIndex", Op: OpGTE, Value: int64(1_000_000 + w*window*37)},
			Cmp{Field: "hilbertIndex", Op: OpLT, Value: int64(1_000_000 + (w+1)*window*37)},
		)
		// Also remembers the winning plan for the shape.
		st := Execute(c, filters[w], nil).Stats
		if st.DocsExamined != window || st.NReturned == 0 || st.NReturned == window {
			b.Fatalf("window %d examined %d, returned %d: want %d examined and a selective refine",
				w, st.DocsExamined, st.NReturned, window)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Execute(c, filters[i%len(filters)], nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/window, "ns/doc")
}
