package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/geo"
)

// BenchmarkQueryApproaches measures one spatio-temporal query
// end-to-end (routing, per-shard planning with a warm plan cache,
// scan, refinement, merge) under each approach on identical data.
func BenchmarkQueryApproaches(b *testing.B) {
	recs := testRecords(20000)
	q := STQuery{
		Rect: geo.NewRect(23.4, 37.4, 23.9, 37.9),
		From: testStart,
		To:   testStart.Add(24 * time.Hour),
	}
	for _, a := range Approaches() {
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
			s.Query(q) // warm the plan caches
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Query(q)
			}
		})
	}
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

// BenchmarkFilterBuild measures query-filter construction, including
// the Hilbert cover for the hil approaches (the Table 8 cost).
func BenchmarkFilterBuild(b *testing.B) {
	for _, tc := range []struct {
		a    Approach
		rect geo.Rect
	}{
		{BslST, geo.NewRect(23.6, 38.0, 24.0, 38.35)},
		{Hil, geo.NewRect(23.6, 38.0, 24.0, 38.35)},
		{HilStar, geo.NewRect(23.6, 38.0, 24.0, 38.35)},
	} {
		b.Run(tc.a.String(), func(b *testing.B) {
			s, err := Open(Config{Approach: tc.a, Shards: 2, DataExtent: testExtent})
			if err != nil {
				b.Fatal(err)
			}
			q := STQuery{Rect: tc.rect, From: testStart, To: testStart.Add(time.Hour)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, _ = s.Filter(q)
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

// BenchmarkDocument measures building one stored document from a
// record with the benchmark's sixteen payload fields — the client-side
// half of the write path (core.encode_doc_us in the traced report).
func BenchmarkDocument(b *testing.B) {
	s, err := Open(Config{Approach: Hil, Shards: 2})
	if err != nil {
		b.Fatal(err)
	}
	rec := testRecords(1)[0]
	rec.Fields = nil
	for i := 0; i < 16; i++ {
		rec.Fields = append(rec.Fields, bson.Elem{Key: fmt.Sprintf("payloadField%02d", i), Value: int64(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Document(rec); err != nil {
			b.Fatal(err)
		}
	}
}
