package sharding

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/btree"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/sfc"
	"repro/internal/sthash"
	"repro/internal/storage"
	"repro/internal/wal"
)

// loadShape is one of the store's approaches as this layer sees it:
// the shard key, the secondary index, whether chunks keep cells and
// how the leading key field is drawn.
type loadShape struct {
	name    string
	key     ShardKey
	index   *index.Definition
	summary int                                      // Options.SummaryShift
	curve   func(geo.Point, time.Time) (string, any) // the approach's own field, if any
	zones   []any                                    // hilbertIndex split values of zones set before the load
}

func loadShapes(t testing.TB) []loadShape {
	hilbert := func(order uint, extent geo.Rect) func(geo.Point, time.Time) (string, any) {
		h, err := sfc.NewHilbert(order)
		if err != nil {
			t.Fatal(err)
		}
		g, err := sfc.NewGrid(h, extent)
		if err != nil {
			t.Fatal(err)
		}
		return func(p geo.Point, _ time.Time) (string, any) { return "hilbertIndex", int64(g.Encode(p)) }
	}
	sth := sthash.Encoder{}
	stHash := func(p geo.Point, at time.Time) (string, any) { return "stHash", sth.Encode(p, at) }
	geoDate := func(name string, geoFirst bool) *index.Definition {
		loc := index.Field{Name: "location", Kind: index.Geo2DSphere}
		date := index.Field{Name: "date", Kind: index.Ascending}
		if geoFirst {
			return &index.Definition{Name: name, Fields: []index.Field{loc, date}}
		}
		return &index.Definition{Name: name, Fields: []index.Field{date, loc}}
	}
	dateKey := ShardKey{Fields: []string{"date"}}
	world, extent := geo.World, geo.NewRect(23, 37, 24.2, 38.2)
	return []loadShape{
		{name: "bslST", key: dateKey, index: geoDate("location_2dsphere_date_1", true)},
		{name: "bslTS", key: dateKey, index: geoDate("date_1_location_2dsphere", false)},
		{name: "hil", key: hilbertDateKey(), summary: 10, curve: hilbert(13, world)},
		{name: "hil*", key: hilbertDateKey(), summary: 10, curve: hilbert(13, extent)},
		{name: "sthash", key: ShardKey{Fields: []string{"stHash"}}, curve: stHash},
		{name: "hil-hashed", key: ShardKey{Fields: []string{"hilbertIndex", "date"}, Strategy: HashedSharding},
			curve: hilbert(13, world)},
		{name: "hil*-zones", key: hilbertDateKey(), summary: 10, curve: hilbert(13, extent),
			zones: []any{int64(20_000_000), int64(40_000_000), int64(55_000_000)}},
		// A curve of 64 cells as the whole key: chunks of one value
		// that cannot split.
		{name: "hil-jumbo", key: ShardKey{Fields: []string{"hilbertIndex"}}, summary: 2, curve: hilbert(3, extent)},
	}
}

// loadDocs encodes n documents of the shape: points clustered around a
// few centres, times mostly rising with jitter (so tuples arrive both in
// and out of key order), payloads of varying size.
func loadDocs(sh loadShape, seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	gen := bson.NewObjectIDGen(uint64(seed))
	docs := make([][]byte, n)
	for i := range docs {
		c := float64(rng.Intn(4)) * 0.25
		p := geo.Point{Lon: 23.1 + c + rng.Float64()*0.2, Lat: 37.1 + c + rng.Float64()*0.2}
		at := baseTime.Add(time.Duration(i)*time.Minute + time.Duration(rng.Int63n(int64(90*time.Minute))))
		d := bson.D{
			{Key: "_id", Value: gen.New(at)},
			{Key: "location", Value: geo.GeoJSONPoint(p)},
			{Key: "date", Value: at},
		}
		if sh.curve != nil {
			k, v := sh.curve(p, at)
			d = append(d, bson.Elem{Key: k, Value: v})
		}
		d = append(d,
			bson.Elem{Key: "vehicleId", Value: int64(rng.Intn(50))},
			bson.Elem{Key: "note", Value: strings.Repeat("x", rng.Intn(160))})
		docs[i] = bson.Marshal(bson.FromD(d))
	}
	return docs
}

func cloneDocs(docs [][]byte) [][]byte {
	out := make([][]byte, len(docs))
	for i, raw := range docs {
		out[i] = bytes.Clone(raw)
	}
	return out
}

// newShapeCluster sets the shape up on a fresh cluster: shard key,
// secondary index, zones.
func newShapeCluster(t testing.TB, sh loadShape, opts Options) *Cluster {
	t.Helper()
	var c *Cluster
	if opts.Dir != "" {
		var err error
		if c, err = OpenCluster(opts); err != nil {
			t.Fatal(err)
		}
	} else {
		c = NewCluster(opts)
	}
	if err := c.ShardCollection(sh.key); err != nil {
		t.Fatal(err)
	}
	if sh.index != nil {
		if err := c.CreateIndex(*sh.index); err != nil {
			t.Fatal(err)
		}
	}
	if sh.zones != nil {
		if err := c.SetZones(ZonesFromSplits("hilbertIndex", sh.zones, opts.Shards)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestBulkLoadMatchesIncremental holds Load's bulk path to the
// per-document path it replaces — InsertBatchRaw on each 256-document
// slice, then Balance — over every approach's shard key, several seeds
// and balance cadences, hashed sharding, and zones installed before
// the load; then keeps applying 64-document batches to both, so the
// counters and the balance cadence carry over. Chunk maps, chunk cells,
// counters, record ids, stored bytes and every index's key sequence
// must be equal throughout, and a durable bulk load must recover to
// the same state from its journal.
func TestBulkLoadMatchesIncremental(t *testing.T) {
	const (
		loaded    = 3000
		batchDocs = 64
		batches   = 12
	)
	var jumbo int
	for _, sh := range loadShapes(t) {
		for seed, every := range []int{256, 1000, -1} {
			seed := int64(seed + 1)
			t.Run(fmt.Sprintf("%s/seed%d", sh.name, seed), func(t *testing.T) {
				opts := Options{Shards: 5, ChunkMaxBytes: 12 << 10, AutoBalanceEvery: every, Parallel: 2, SummaryShift: sh.summary}
				if sh.name == "hil" {
					opts.Dir, opts.Sync = t.TempDir(), wal.SyncNever
				}
				docs := loadDocs(sh, seed, loaded+batches*batchDocs)
				bulk := newShapeCluster(t, sh, opts)
				refOpts := opts
				refOpts.Dir = ""
				ref := newShapeCluster(t, sh, refOpts)

				if err := bulk.Load(cloneDocs(docs[:loaded])); err != nil {
					t.Fatal(err)
				}
				for start := 0; start < loaded; start += loadSlice {
					if _, _, err := ref.InsertBatchRaw("", cloneDocs(docs[start:min(start+loadSlice, loaded)])); err != nil {
						t.Fatal(err)
					}
				}
				ref.Balance()
				st := ref.ClusterStats()
				if st.Splits == 0 || st.Migrations == 0 {
					t.Fatalf("the load made %d splits and %d migrations; the shape exercises nothing", st.Splits, st.Migrations)
				}
				requireSamePlacement(t, "after the load", bulk, ref)

				for k := 0; k < batches; k++ {
					batch := docs[loaded+k*batchDocs : loaded+(k+1)*batchDocs]
					id := fmt.Sprintf("b%02d", k)
					for _, c := range []*Cluster{bulk, ref} {
						if n, _, err := c.InsertBatchRaw(id, cloneDocs(batch)); err != nil || n != batchDocs {
							t.Fatalf("batch %d: applied %d, err %v", k, n, err)
						}
					}
				}
				requireSamePlacement(t, "after the batches", bulk, ref)
				if st := ref.ClusterStats(); st.Jumbo > st.Chunks {
					t.Fatalf("%d jumbo findings over %d chunks: a jumbo chunk was counted per insert", st.Jumbo, st.Chunks)
				}
				jumbo += ref.ClusterStats().Jumbo

				if opts.Dir != "" {
					if err := bulk.Close(); err != nil {
						t.Fatal(err)
					}
					requireSamePlacement(t, "recovered", openDurable(t, opts), ref)
				}
			})
		}
	}
	if jumbo == 0 {
		t.Fatal("no case met a jumbo chunk")
	}
}

// requireSamePlacement compares everything placement decides.
func requireSamePlacement(t *testing.T, label string, got, want *Cluster) {
	t.Helper()
	if g, w := got.Chunks(), want.Chunks(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: chunk maps differ\n got %+v\nwant %+v", label, g, w)
	}
	gs, ws := got.ClusterStats(), want.ClusterStats()
	if gs.Splits != ws.Splits || gs.Migrations != ws.Migrations || gs.Jumbo != ws.Jumbo {
		t.Fatalf("%s: splits/migrations/jumbo %d/%d/%d, want %d/%d/%d",
			label, gs.Splits, gs.Migrations, gs.Jumbo, ws.Splits, ws.Migrations, ws.Jumbo)
	}
	gd, gsum := got.ContentFingerprint()
	wd, wsum := want.ContentFingerprint()
	if gd != wd || gsum != wsum {
		t.Fatalf("%s: fingerprint %d/%016x, want %d/%016x", label, gd, gsum, wd, wsum)
	}
	got.mu.RLock()
	defer got.mu.RUnlock()
	want.mu.RLock()
	defer want.mu.RUnlock()
	if got.sinceBalance != want.sinceBalance {
		t.Fatalf("%s: %d inserts since the last balance, want %d", label, got.sinceBalance, want.sinceBalance)
	}
	for i, ch := range got.chunks {
		w := want.chunks[i]
		if ch.sumExact != w.sumExact || !slices.Equal(ch.cells, w.cells) {
			t.Fatalf("%s: chunk %d's cells (exact %v) differ from the reference's (exact %v)",
				label, i, ch.sumExact, w.sumExact)
		}
	}
	for s := range got.shards {
		g, w := got.shards[s].Coll, want.shards[s].Coll
		if g.Store().NextID() != w.Store().NextID() || g.Len() != w.Len() || g.DataBytes() != w.DataBytes() {
			t.Fatalf("%s: shard %d next id/len/bytes %d/%d/%d, want %d/%d/%d", label, s,
				g.Store().NextID(), g.Len(), g.DataBytes(), w.Store().NextID(), w.Len(), w.DataBytes())
		}
		if gr, wr := storedRecords(g.Store()), storedRecords(w.Store()); gr != wr {
			t.Fatalf("%s: shard %d stores different records", label, s)
		}
		gi, wi := g.Indexes(), w.Indexes()
		if len(gi) != len(wi) {
			t.Fatalf("%s: shard %d has %d indexes, want %d", label, s, len(gi), len(wi))
		}
		for k := range gi {
			if gk, wk := indexEntries(gi[k]), indexEntries(wi[k]); gk != wk {
				t.Fatalf("%s: shard %d index %q holds a different key sequence", label, s, gi[k].Def().Name)
			}
		}
	}
}

// storedRecords renders every (record id, bytes) of the store in id
// order.
func storedRecords(st *storage.Store) string {
	var b strings.Builder
	st.Walk(func(id storage.RecordID, raw []byte) bool {
		fmt.Fprintf(&b, "%d:%x\n", id, raw)
		return true
	})
	return b.String()
}

// indexEntries renders every (key, record id) of the index in key
// order.
func indexEntries(ix *index.Index) string {
	var b strings.Builder
	ix.ScanInterval(index.Interval{Low: btree.Unbounded(), High: btree.Unbounded()}, func(key []byte, id storage.RecordID) bool {
		fmt.Fprintf(&b, "%x=%d\n", key, id)
		return true
	})
	return b.String()
}

// BenchmarkLoadPasses times Load's two placement passes apart on the
// benchmark's set-up shape at 40 000 documents: twelve shards, chunks
// of 9 bytes per document, the Hilbert key with chunk cells, ≈ 440-byte
// documents. plan is pass 1 (check, tuples, the key model); store is
// pass 2 (every shard's records, indexes and chunk cells). Per-document
// time and heap objects cover the timed pass only.
func BenchmarkLoadPasses(b *testing.B) {
	const n = 40000
	docs := bson.MarshalAll(wideDocs(1, n))
	opts := Options{Shards: 12, ChunkMaxBytes: 9 * n, SummaryShift: 10}
	fresh := func() *Cluster {
		c := NewCluster(opts)
		if err := c.ShardCollection(hilbertDateKey()); err != nil {
			b.Fatal(err)
		}
		return c
	}
	for _, pass := range []string{"plan", "store"} {
		b.Run(pass, func(b *testing.B) {
			var mallocs uint64
			var before, after runtime.MemStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := fresh()
				var m *loadModel
				var err error
				if pass == "store" {
					if m, err = c.planLoadLocked(docs); err != nil {
						b.Fatal(err)
					}
				}
				runtime.GC()
				runtime.ReadMemStats(&before)
				b.StartTimer()
				if pass == "plan" {
					_, err = c.planLoadLocked(docs)
				} else {
					err = c.storeLoadLocked(m)
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				mallocs += after.Mallocs - before.Mallocs
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/doc")
			b.ReportMetric(float64(mallocs)/float64(b.N*n), "allocs/doc")
		})
	}
}

// TestLoadRefusesDocumentsInsertWould: a document an insert would
// refuse — no _id, a location the 2dsphere index cannot key — refuses
// the whole Load, on the bulk path and on the per-slice path alike.
func TestLoadRefusesDocumentsInsertWould(t *testing.T) {
	sh := loadShapes(t)[0] // bslST: the geo index
	good := loadDocs(sh, 1, 600)
	for name, bad := range map[string][]byte{
		"no _id": bson.Marshal(bson.FromD(bson.D{{Key: "date", Value: baseTime}})),
		"location": bson.Marshal(bson.FromD(bson.D{
			{Key: "_id", Value: bson.NewObjectIDGen(9).New(baseTime)},
			{Key: "location", Value: "nowhere"},
			{Key: "date", Value: baseTime},
		})),
	} {
		for _, prior := range []int{0, 100} {
			c := newShapeCluster(t, sh, Options{Shards: 3, ChunkMaxBytes: 12 << 10})
			if prior > 0 {
				if err := c.Load(cloneDocs(good[:prior])); err != nil {
					t.Fatal(err)
				}
			}
			docs := cloneDocs(good[prior:])
			docs[300] = bad
			err := c.Load(docs)
			if err == nil || !strings.Contains(err.Error(), "document 300:") {
				t.Fatalf("%s after %d documents: err = %v, want one naming document 300", name, prior, err)
			}
			if n, _ := c.ContentFingerprint(); n != prior {
				t.Fatalf("%s after %d documents: the refused load left %d documents", name, prior, n)
			}
		}
	}
}
