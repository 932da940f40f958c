package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/query"
)

// BenchmarkQueryApproaches measures one spatio-temporal query
// end-to-end (routing, per-shard planning, scan, refinement, merge)
// under each approach on identical data: "range" repeats one 0.5° × 0.5°,
// 24 h query over a warm plan cache; "topk" is the same query ordered
// newest first and limited to 100, which its ~94 matches never reach;
// "limit" and "topk10" limit it to 10, in natural order and newest
// first, so the limit binds. The three report docs/op, the documents
// the shards fetched per query; "point" cycles through 4 096 distinct
// point queries — the benchmark's 0.0095° × 0.0057° rectangle around a
// stored record, with a window of 1–24 h — so its planning is per
// query, as in the benchmark's point stream.
func BenchmarkQueryApproaches(b *testing.B) {
	recs := testRecords(20000)
	rangeQ := STQuery{
		Rect: geo.NewRect(23.4, 37.4, 23.9, 37.9),
		From: testStart,
		To:   testStart.Add(24 * time.Hour),
	}
	points := pointQueries(recs, 4096)
	for _, a := range AllApproaches() {
		b.Run(a.String(), func(b *testing.B) {
			s, err := Open(Config{
				Approach:         a,
				Shards:           6,
				ChunkMaxBytes:    64 << 10,
				AutoBalanceEvery: 1024,
				DataExtent:       testExtent,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Load(recs); err != nil {
				b.Fatal(err)
			}
			b.Run("range", func(b *testing.B) {
				s.Query(rangeQ) // warm the plan caches
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = s.Query(rangeQ)
				}
			})
			for _, lim := range []struct {
				name  string
				limit int
				sort  SortOrder
			}{{"topk", 100, SortDateDesc}, {"limit", 10, SortNone}, {"topk10", 10, SortDateDesc}} {
				b.Run(lim.name, func(b *testing.B) {
					q := rangeQ
					q.Limit, q.Sort = lim.limit, lim.sort
					benchLimited(b, s, q)
				})
			}
			b.Run("point", func(b *testing.B) {
				for _, q := range points {
					s.Query(q) // warm whatever per-shape state there is
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = s.Query(points[i%len(points)])
				}
			})
		})
	}
}

// benchLimited runs one limited query and reports docs/op, the
// documents its shards fetched.
func benchLimited(b *testing.B, s *Store, q STQuery) {
	p, err := s.plan(q)
	if err != nil {
		b.Fatal(err)
	}
	docs := 0
	for _, st := range s.Cluster().QueryOpts(p.f, p.opts).PerShard {
		docs += st.DocsExamined
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Query(q)
	}
	b.ReportMetric(float64(docs), "docs/op")
}

// pointQueries draws n point queries: the benchmark's small rectangle
// placed around a random record, over a window of 1–24 h that holds
// the record's time.
func pointQueries(recs []Record, n int) []STQuery {
	const w, h = 0.0095, 0.0057
	rng := rand.New(rand.NewSource(7))
	qs := make([]STQuery, n)
	for i := range qs {
		a := recs[rng.Intn(len(recs))]
		window := time.Hour + time.Duration(rng.Int63n(int64(23*time.Hour)))
		lon, lat := a.Point.Lon-rng.Float64()*w, a.Point.Lat-rng.Float64()*h
		from := a.Time.Add(-time.Duration(rng.Float64() * float64(window)))
		qs[i] = STQuery{Rect: geo.NewRect(lon, lat, lon+w, lat+h), From: from, To: from.Add(window)}
	}
	return qs
}

// BenchmarkInsert measures the loading path per approach (document
// build, Hilbert encoding, chunk routing, index maintenance).
func BenchmarkInsert(b *testing.B) {
	for _, a := range []Approach{BslST, Hil} {
		b.Run(a.String(), func(b *testing.B) {
			s, err := Open(Config{
				Approach:         a,
				Shards:           6,
				ChunkMaxBytes:    1 << 20,
				AutoBalanceEvery: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			recs := testRecords(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := recs[0]
				rec.Time = rec.Time.Add(time.Duration(i) * time.Second)
				if err := s.Insert(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Stage-budget store shape: the benchmark harness's 12 shards and about
// its 73 chunks, with the result cache on.
const (
	stageRecords    = 20000
	stageChunkBytes = 52 << 10
)

// stageQueries are the paper's small (Q^s-sized, ~2 cover ranges) and
// big (Q^b-sized, ~20 cover ranges on hil) rectangles over the stage
// store.
var stageQueries = []struct {
	name string
	q    STQuery
}{
	{"point", STQuery{
		Rect: geo.NewRect(23.71, 37.95, 23.71+0.0095, 37.95+0.0057),
		From: testStart, To: testStart.Add(24 * time.Hour), Count: true,
	}},
	{"scan", STQuery{
		Rect: geo.NewRect(23.6, 38.0, 23.6+0.4267, 38.0+0.33),
		From: testStart, To: testStart.Add(7 * 24 * time.Hour), Count: true,
	}},
}

// openStageStore loads the stage-budget store for one approach.
func openStageStore(tb testing.TB, a Approach) *Store {
	return openStageStoreWith(tb, a, 12, 1<<20)
}

// openStageStoreWith loads the stage-budget store's data over the given
// shards, with a result cache of the given size (0: none).
func openStageStoreWith(tb testing.TB, a Approach, shards int, cacheBytes int64) *Store {
	tb.Helper()
	s, err := Open(Config{
		Approach:         a,
		Shards:           shards,
		ChunkMaxBytes:    stageChunkBytes,
		DataExtent:       testExtent,
		ResultCacheBytes: cacheBytes,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Load(testRecords(stageRecords)); err != nil {
		tb.Fatal(err)
	}
	return s
}

// Sinks keep the compiler from discarding the measured calls.
var (
	sinkFilter  query.Filter
	sinkTargets []int
	sinkResult  *QueryResult
)

// BenchmarkFilterBuild is the router's per-query front end, stage by
// stage, for a point and a scan rectangle under each approach: filter
// (the curve cover and the filter around it, Table 8's cost), prepare
// (bounds extraction), route (shard targeting and cell pruning over
// the chunk map) and hit (a warm result-cache hit through Store.Query:
// every stage above plus the cache probe, with no shard visited).
func BenchmarkFilterBuild(b *testing.B) {
	for _, a := range []Approach{BslST, Hil, HilStar} {
		b.Run(a.String(), func(b *testing.B) {
			s := openStageStore(b, a)
			for _, sq := range stageQueries {
				q := sq.q
				f, _, _ := s.Filter(q)
				b.Run(sq.name+"/filter", func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						sinkFilter, _, _ = s.Filter(q)
					}
				})
				b.Run(sq.name+"/prepare", func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						sinkFilter = query.Prepare(f)
					}
				})
				p := query.Prepare(f)
				b.Run(sq.name+"/route", func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						sinkTargets, _, _ = s.Cluster().Route(p)
					}
				})
				s.Query(q) // fill the result cache
				b.Run(sq.name+"/hit", func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						sinkResult = s.Query(q)
					}
					if !sinkResult.Stats.CacheHit {
						b.Fatal("warm query missed the result cache")
					}
				})
			}
		})
	}
}

func BenchmarkConfigureZones(b *testing.B) {
	recs := testRecords(5000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := Open(Config{Approach: Hil, Shards: 4, ChunkMaxBytes: 32 << 10})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Load(recs); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := s.ConfigureZones(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRecord is the benchmark's record shape: a generated point and
// time with sixteen int64 payload fields.
func benchRecord() Record {
	rec := testRecords(1)[0]
	rec.Fields = nil
	for i := 0; i < 16; i++ {
		rec.Fields = append(rec.Fields, bson.Elem{Key: fmt.Sprintf("payloadField%02d", i), Value: int64(i)})
	}
	return rec
}

// BenchmarkDocument measures building one stored document from a
// record with the benchmark's sixteen payload fields — the boxed
// reference encoder (core.encode_doc_us in the traced report). Its
// bytes come from bson.Marshal on top of this.
func BenchmarkDocument(b *testing.B) {
	s, err := Open(Config{Approach: Hil, Shards: 2})
	if err != nil {
		b.Fatal(err)
	}
	rec := benchRecord()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Document(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeRecord measures encoding the same record straight to
// its stored bytes — what every write path does.
func BenchmarkEncodeRecord(b *testing.B) {
	s, err := Open(Config{Approach: Hil, Shards: 2})
	if err != nil {
		b.Fatal(err)
	}
	rec := benchRecord()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.encode(rec); err != nil {
			b.Fatal(err)
		}
	}
}
