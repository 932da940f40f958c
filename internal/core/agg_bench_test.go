package core_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geo"
	"repro/internal/query"
)

// BenchmarkAggregateMiss measures a pushed-down aggregate that misses
// the result cache — the dashboard workload's expensive path — on the
// benchmark's store shape: the paper's proposal on 12 shards, 120 000
// generated fleet traces with sixteen payload fields, chunks of 9 bytes
// per record, the result cache off. The queries are the benchmark's
// scan rectangles (0.4267° × 0.33°, anchored at a record) with windows
// sized for about 1 000 matches each, cycled in order. Besides ns/op it
// reports docs/op, the documents the shards fetched per aggregate.
func BenchmarkAggregateMiss(b *testing.B) {
	const records = 120000
	recs := data.GenerateReal(data.RealConfig{Records: records, ExtraFields: 16, Seed: 1})
	s, err := core.Open(core.Config{Approach: core.Hil, Shards: 12, ChunkMaxBytes: 9 * records})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Load(recs); err != nil {
		b.Fatal(err)
	}
	qs := aggMissQueries(s, recs, 64)
	order := int(s.Grid().Curve().Order())
	for _, kind := range []struct {
		name string
		set  func(*core.STQuery)
		spec query.AggSpec
	}{
		{"count", func(q *core.STQuery) { q.Count = true }, query.AggSpec{Kind: query.AggCount}},
		{"heatmap", func(q *core.STQuery) { q.HeatmapBits = 8 },
			query.AggSpec{Kind: query.AggCellHist, Field: core.FieldHilbert, Shift: uint8(2 * (order - 8))}},
		{"distinct", func(q *core.STQuery) { q.Distinct = "vehicleId" },
			query.AggSpec{Kind: query.AggDistinct, Field: "vehicleId"}},
	} {
		b.Run(kind.name, func(b *testing.B) {
			aggs := make([]core.STQuery, len(qs))
			docs := 0
			for i, q := range qs {
				kind.set(&q)
				aggs[i] = q
				f, _, _ := s.Filter(q)
				for _, st := range s.Cluster().QueryOpts(f, query.Opts{Agg: kind.spec}).PerShard {
					docs += st.DocsExamined
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Aggregate(aggs[i%len(aggs)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(docs)/float64(len(aggs)), "docs/op")
		})
	}
}

// aggMissQueries draws n scan rectangles anchored at records, with a
// window scaled from 7 days so that they match about 1 000 documents
// each on average.
func aggMissQueries(s *core.Store, recs []core.Record, n int) []core.STQuery {
	draw := func(window time.Duration) []core.STQuery {
		rng := rand.New(rand.NewSource(7))
		qs := make([]core.STQuery, n)
		for i := range qs {
			a := recs[rng.Intn(len(recs))]
			minLon := a.Point.Lon - rng.Float64()*0.4267
			minLat := a.Point.Lat - rng.Float64()*0.33
			from := a.Time.Add(-time.Duration(rng.Float64() * float64(window))).Truncate(time.Millisecond)
			qs[i] = core.STQuery{
				Rect: geo.NewRect(minLon, minLat, minLon+0.4267, minLat+0.33),
				From: from,
				To:   from.Add(window.Truncate(time.Millisecond)),
			}
		}
		return qs
	}
	week := 7 * 24 * time.Hour
	matches := 0
	for _, q := range draw(week) {
		matches += s.Count(q)
	}
	return draw(time.Duration(float64(week) * 1000 * float64(n) / float64(max(matches, 1))))
}
