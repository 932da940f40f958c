package sharding

// Write-side micro-benchmarks (ROADMAP item 1's per-layer list): what
// one migrated, one split-over, one durably inserted and one replayed
// document costs, in time and in heap objects.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/wal"
)

// wideDocs generates n documents shaped like the benchmark's records:
// the four indexed fields plus sixteen payload fields (~440 bytes).
func wideDocs(seed int64, n int) []*bson.Document {
	rng := rand.New(rand.NewSource(seed))
	gen := bson.NewObjectIDGen(uint64(seed))
	docs := make([]*bson.Document, n)
	for i := range docs {
		p := geo.Point{Lon: 23 + rng.Float64(), Lat: 37 + rng.Float64()}
		at := baseTime.Add(time.Duration(rng.Int63n(int64(30 * 24 * time.Hour))))
		d := bson.D{
			{Key: "_id", Value: gen.New(at)},
			{Key: "location", Value: geo.GeoJSONPoint(p)},
			{Key: "date", Value: at},
			{Key: "hilbertIndex", Value: int64(rng.Intn(1 << 20))},
			{Key: "vehicleId", Value: int64(rng.Intn(500))},
			{Key: "speedKmh", Value: rng.Float64() * 120},
			{Key: "headingDeg", Value: float64(rng.Intn(360))},
			{Key: "odometerKm", Value: rng.Float64() * 1e5},
			{Key: "engineOn", Value: rng.Intn(10) > 0},
			{Key: "fuelLevelPct", Value: int64(rng.Intn(101))},
			{Key: "rpm", Value: int64(700 + rng.Intn(2500))},
			{Key: "coolantTempC", Value: int64(70 + rng.Intn(30))},
			{Key: "weatherCondition", Value: "partly cloudy"},
			{Key: "temperatureC", Value: 8 + rng.Float64()*28},
			{Key: "humidityPct", Value: int64(20 + rng.Intn(70))},
			{Key: "windSpeedMs", Value: rng.Float64() * 15},
			{Key: "roadType", Value: "secondary"},
			{Key: "roadSpeedLimit", Value: int64(30 + 10*rng.Intn(10))},
			{Key: "nearestPoi", Value: "fuel station"},
			{Key: "poiDistanceM", Value: int64(rng.Intn(5000))},
		}
		docs[i] = bson.FromD(d)
	}
	return docs
}

// perDoc reports the timed region's cost per document: ns/doc and heap
// objects/doc next to the per-iteration figures -benchmem prints.
func perDoc(b *testing.B, docs int, run func()) {
	b.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	run()
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(docs)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/doc")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/doc")
}

// oneChunkCluster loads docs into a single chunk on shard 0 that no
// insert splits or moves.
func oneChunkCluster(b *testing.B, docs []*bson.Document) *Cluster {
	b.Helper()
	c := NewCluster(Options{Shards: 2, ChunkMaxBytes: 1 << 30, AutoBalanceEvery: -1, SummaryShift: 10})
	if err := c.ShardCollection(hilbertDateKey()); err != nil {
		b.Fatal(err)
	}
	for _, d := range docs {
		if err := c.Insert(d); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// BenchmarkMoveChunk migrates one 512-document chunk back and forth
// between two shards.
func BenchmarkMoveChunk(b *testing.B) {
	const chunkDocs = 512
	c := oneChunkCluster(b, wideDocs(3, chunkDocs))
	ch := c.chunks[0]
	perDoc(b, b.N*chunkDocs, func() {
		for i := 0; i < b.N; i++ {
			c.move(ch, 1-ch.Shard, c)
		}
	})
	if got := c.shards[ch.Shard].Coll.Len(); got != chunkDocs {
		b.Fatalf("chunk owner holds %d documents, want %d", got, chunkDocs)
	}
}

// BenchmarkSplitChunk splits one 512-document chunk at its median
// (both halves rebuild their cells), then glues the metadata back.
func BenchmarkSplitChunk(b *testing.B) {
	const chunkDocs = 512
	c := oneChunkCluster(b, wideDocs(4, chunkDocs))
	whole := *c.chunks[0]
	perDoc(b, b.N*chunkDocs, func() {
		for i := 0; i < b.N; i++ {
			c.splitChunk(0, c)
			if len(c.chunks) != 2 {
				b.Fatalf("split left %d chunks", len(c.chunks))
			}
			left := c.chunks[0]
			left.Max, left.Docs, left.Bytes = whole.Max, whole.Docs, whole.Bytes
			c.chunks = c.chunks[:1]
		}
	})
}

// BenchmarkInsertBatchDurable applies 64-document batches to a
// journaled cluster under the default group-commit policy, splits and
// auto-balance included.
func BenchmarkInsertBatchDurable(b *testing.B) {
	const batchDocs = 64
	c, err := OpenCluster(Options{Shards: 6, Dir: b.TempDir(), Sync: wal.SyncBatch})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.ShardCollection(hilbertDateKey()); err != nil {
		b.Fatal(err)
	}
	docs := wideDocs(5, b.N*batchDocs)
	perDoc(b, len(docs), func() {
		for i := 0; i < b.N; i++ {
			applied, _, err := c.InsertBatch(fmt.Sprintf("b%07d", i), docs[i*batchDocs:(i+1)*batchDocs])
			if err != nil || applied != batchDocs {
				b.Fatalf("batch %d: applied %d, err %v", i, applied, err)
			}
		}
	})
}

// BenchmarkReplayBatch replays a journal of 64-document batch records
// into a fresh in-memory cluster — recovery without the file reads.
func BenchmarkReplayBatch(b *testing.B) {
	const (
		batchDocs = 64
		batches   = 64
	)
	docs := wideDocs(6, batches*batchDocs)
	recs := make([]wal.Record, batches)
	for k := range recs {
		body := encodeInsertBatch(fmt.Sprintf("b%07d", k), bson.MarshalAll(docs[k*batchDocs:(k+1)*batchDocs]))
		recs[k] = wal.Record{LSN: uint64(k + 1), Op: opInsertBatch, Body: body}
	}
	fresh := make([]*Cluster, b.N)
	for i := range fresh {
		fresh[i] = NewCluster(Options{Shards: 6})
		if err := fresh[i].ShardCollection(hilbertDateKey()); err != nil {
			b.Fatal(err)
		}
	}
	perDoc(b, b.N*len(docs), func() {
		for i := range fresh {
			if err := fresh[i].replay(recs); err != nil {
				b.Fatal(err)
			}
			if got := fresh[i].ClusterStats().Docs; got != len(docs) {
				b.Fatalf("replayed %d documents, want %d", got, len(docs))
			}
			fresh[i] = nil // one recovered cluster live at a time
		}
	})
}
