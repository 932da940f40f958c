package core_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
)

// BenchmarkLoad measures Store.Load into a fresh store of the
// benchmark's set-up shape at 40 000 records: the paper's proposal on
// 12 shards, chunks of 9 bytes per record, generated fleet traces with
// sixteen payload fields. It reports the load's cost per record; the
// store's opening is outside the timed region. Its passes are timed
// apart by sharding's BenchmarkLoadPasses.
func BenchmarkLoad(b *testing.B) {
	const records = 40000
	recs := data.GenerateReal(data.RealConfig{Records: records, ExtraFields: 16, Seed: 1})
	cfg := core.Config{Approach: core.Hil, Shards: 12, ChunkMaxBytes: 9 * records}
	var mallocs uint64
	var before, after runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := core.Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		if err := s.Load(recs); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		b.StartTimer()
	}
	docs := float64(b.N * records)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/docs, "ns/doc")
	b.ReportMetric(float64(mallocs)/docs, "allocs/doc")
}
