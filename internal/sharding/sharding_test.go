package sharding

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/collection"
	"repro/internal/geo"
	"repro/internal/keyenc"
	"repro/internal/query"
)

var baseTime = time.Date(2018, 7, 1, 0, 0, 0, 0, time.UTC)

func stDoc(gen *bson.ObjectIDGen, p geo.Point, at time.Time, hv int64) *bson.Document {
	return bson.FromD(bson.D{
		{Key: "_id", Value: gen.New(at)},
		{Key: "location", Value: geo.GeoJSONPoint(p)},
		{Key: "date", Value: at},
		{Key: "hilbertIndex", Value: hv},
	})
}

// loadCluster builds a 4-shard cluster sharded on (hilbertIndex,
// date) and loads n uniform documents. It also returns a reference
// unsharded collection with identical content.
func loadCluster(t testing.TB, n int, key ShardKey, opts Options) (*Cluster, *collection.Collection) {
	t.Helper()
	c := NewCluster(opts)
	if err := c.ShardCollection(key); err != nil {
		t.Fatal(err)
	}
	ref := collection.New("ref")
	gen := bson.NewObjectIDGen(1)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		p := geo.Point{Lon: 23 + rng.Float64(), Lat: 37 + rng.Float64()}
		at := baseTime.Add(time.Duration(rng.Int63n(int64(30 * 24 * time.Hour))))
		hv := int64(rng.Intn(4096))
		doc := stDoc(gen, p, at, hv)
		if err := c.Insert(doc); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Insert(doc.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	c.Balance()
	return c, ref
}

func hilbertDateKey() ShardKey {
	return ShardKey{Fields: []string{"hilbertIndex", "date"}}
}

func smallOpts() Options {
	return Options{Shards: 4, ChunkMaxBytes: 16 << 10, AutoBalanceEvery: 512}
}

func TestShardCollectionSetsUpMetadata(t *testing.T) {
	c := NewCluster(smallOpts())
	if err := c.ShardCollection(hilbertDateKey()); err != nil {
		t.Fatal(err)
	}
	if err := c.ShardCollection(hilbertDateKey()); err == nil {
		t.Fatal("double ShardCollection accepted")
	}
	if err := NewCluster(smallOpts()).ShardCollection(ShardKey{}); err == nil {
		t.Fatal("empty shard key accepted")
	}
	chunks := c.Chunks()
	if len(chunks) != 1 || chunks[0].Shard != 0 {
		t.Fatalf("initial chunks = %v", chunks)
	}
	for _, s := range c.Shards() {
		if s.Coll.Index(ShardKeyIndexName) == nil {
			t.Fatalf("shard %d missing shard-key index", s.ID)
		}
	}
	key, ok := c.ShardKeyOf()
	if !ok || key.String() != "{hilbertIndex: 1, date: 1}" {
		t.Fatalf("ShardKeyOf = %v, %v", key, ok)
	}
}

func TestInsertSplitsAndBalances(t *testing.T) {
	c, _ := loadCluster(t, 4000, hilbertDateKey(), smallOpts())
	st := c.ClusterStats()
	if st.Docs != 4000 {
		t.Fatalf("cluster holds %d docs", st.Docs)
	}
	if st.Chunks < 4 {
		t.Fatalf("only %d chunks after load", st.Chunks)
	}
	// Chunk counts are even within 1.
	min, max := 1<<30, 0
	for _, ss := range st.PerShard {
		if ss.Chunks < min {
			min = ss.Chunks
		}
		if ss.Chunks > max {
			max = ss.Chunks
		}
	}
	if max-min > 1 {
		t.Fatalf("unbalanced chunk counts: %+v", st.PerShard)
	}
	if st.Migrations == 0 {
		t.Fatal("balancer never migrated a chunk")
	}
	// Every shard holds some data.
	for i, ss := range st.PerShard {
		if ss.Docs == 0 {
			t.Fatalf("shard %d empty: %+v", i, st.PerShard)
		}
	}
}

func TestChunksTileKeySpace(t *testing.T) {
	c, _ := loadCluster(t, 2000, hilbertDateKey(), smallOpts())
	chunks := c.Chunks()
	key, _ := c.ShardKeyOf()
	if !bytes.Equal(chunks[0].Min, key.MinTuple()) {
		t.Fatal("first chunk does not start at MinKey tuple")
	}
	if !bytes.Equal(chunks[len(chunks)-1].Max, key.MaxTuple()) {
		t.Fatal("last chunk does not end at MaxKey tuple")
	}
	for i := 1; i < len(chunks); i++ {
		if !bytes.Equal(chunks[i-1].Max, chunks[i].Min) {
			t.Fatalf("gap between chunks %d and %d", i-1, i)
		}
	}
	// Doc counts in chunk metadata sum to the total.
	total := 0
	for _, ch := range chunks {
		total += ch.Docs
	}
	if total != 2000 {
		t.Fatalf("chunk doc counts sum to %d", total)
	}
}

func TestQueryMatchesUnshardedReference(t *testing.T) {
	c, ref := loadCluster(t, 3000, hilbertDateKey(), smallOpts())
	queries := []query.Filter{
		query.NewAnd(
			query.Cmp{Field: "hilbertIndex", Op: query.OpGTE, Value: int64(100)},
			query.Cmp{Field: "hilbertIndex", Op: query.OpLTE, Value: int64(300)},
		),
		query.TimeRangeFilter("date", baseTime, baseTime.Add(48*time.Hour)),
		query.NewAnd(
			query.Cmp{Field: "hilbertIndex", Op: query.OpEQ, Value: int64(250)},
			query.TimeRangeFilter("date", baseTime, baseTime.Add(15*24*time.Hour)),
		),
		query.GeoWithin{Field: "location", Rect: geo.NewRect(23.2, 37.2, 23.5, 37.5)},
	}
	for i, f := range queries {
		want := query.Execute(ref, f, nil).Stats.NReturned
		res := c.Query(f)
		if res.TotalReturned != want {
			t.Errorf("query %d: cluster returned %d, reference %d", i, res.TotalReturned, want)
		}
		if len(res.Docs) != res.TotalReturned {
			t.Errorf("query %d: %d docs vs TotalReturned %d", i, len(res.Docs), res.TotalReturned)
		}
	}
}

func TestRoutingTargetsSubsetOnShardKey(t *testing.T) {
	c, _ := loadCluster(t, 4000, hilbertDateKey(), smallOpts())
	// Tight range on the leading shard-key field.
	res := c.Query(query.NewAnd(
		query.Cmp{Field: "hilbertIndex", Op: query.OpGTE, Value: int64(10)},
		query.Cmp{Field: "hilbertIndex", Op: query.OpLTE, Value: int64(20)},
	))
	if res.Broadcast {
		t.Fatal("shard-key range query broadcast")
	}
	if res.ShardsTargeted == 0 || res.ShardsTargeted == len(c.Shards()) {
		t.Fatalf("targeted %d of %d shards", res.ShardsTargeted, len(c.Shards()))
	}
	// A filter with no shard-key constraint broadcasts.
	res = c.Query(query.GeoWithin{Field: "location", Rect: geo.NewRect(23, 37, 24, 38)})
	if !res.Broadcast {
		t.Fatal("non-shard-key query did not broadcast")
	}
	if res.ShardsTargeted != len(c.Shards()) {
		t.Fatalf("broadcast targeted %d of %d shards", res.ShardsTargeted, len(c.Shards()))
	}
	// Max metrics are consistent with per-shard stats.
	maxKeys := 0
	for _, st := range res.PerShard {
		if st.KeysExamined > maxKeys {
			maxKeys = st.KeysExamined
		}
	}
	if res.MaxKeysExamined != maxKeys {
		t.Fatalf("MaxKeysExamined = %d, per-shard max %d", res.MaxKeysExamined, maxKeys)
	}
}

func TestRoutingImpossibleFilterTargetsNothing(t *testing.T) {
	c, _ := loadCluster(t, 500, hilbertDateKey(), smallOpts())
	res := c.Query(query.NewAnd(
		query.Cmp{Field: "hilbertIndex", Op: query.OpGT, Value: int64(10)},
		query.Cmp{Field: "hilbertIndex", Op: query.OpLT, Value: int64(5)},
	))
	if res.ShardsTargeted != 0 || res.TotalReturned != 0 {
		t.Fatalf("impossible query: %+v", res)
	}
}

func TestCompoundShardKeyRoutingUsesSecondField(t *testing.T) {
	c, _ := loadCluster(t, 4000, hilbertDateKey(), smallOpts())
	// Equality on the leading field + tight date range can rule out
	// chunks that a bare equality could not.
	eqOnly := c.Query(query.Cmp{Field: "hilbertIndex", Op: query.OpEQ, Value: int64(100)})
	withDate := c.Query(query.NewAnd(
		query.Cmp{Field: "hilbertIndex", Op: query.OpEQ, Value: int64(100)},
		query.TimeRangeFilter("date", baseTime, baseTime.Add(time.Hour)),
	))
	if withDate.ShardsTargeted > eqOnly.ShardsTargeted {
		t.Fatalf("narrower query targeted more shards (%d > %d)",
			withDate.ShardsTargeted, eqOnly.ShardsTargeted)
	}
}

func TestUnshardedQueryGoesToShardZero(t *testing.T) {
	c := NewCluster(smallOpts())
	gen := bson.NewObjectIDGen(1)
	doc := stDoc(gen, geo.Point{Lon: 23, Lat: 37}, baseTime, 5)
	if err := c.Insert(doc); err != nil {
		t.Fatal(err)
	}
	res := c.Query(query.Cmp{Field: "hilbertIndex", Op: query.OpEQ, Value: int64(5)})
	if res.ShardsTargeted != 1 || res.TargetedShards[0] != 0 {
		t.Fatalf("unsharded routing: %+v", res)
	}
	if res.TotalReturned != 1 {
		t.Fatalf("returned %d", res.TotalReturned)
	}
}

func TestZonesValidation(t *testing.T) {
	c, _ := loadCluster(t, 500, hilbertDateKey(), smallOpts())
	enc := func(v int64) []byte { return keyenc.Encode(v) }
	if err := c.SetZones([]Zone{{Name: "bad", Min: enc(10), Max: enc(10), Shard: 0}}); err == nil {
		t.Fatal("empty zone range accepted")
	}
	if err := c.SetZones([]Zone{{Name: "bad", Min: enc(0), Max: enc(10), Shard: 99}}); err == nil {
		t.Fatal("unknown shard accepted")
	}
	if err := c.SetZones([]Zone{
		{Name: "a", Min: enc(0), Max: enc(100), Shard: 0},
		{Name: "b", Min: enc(50), Max: enc(200), Shard: 1},
	}); err == nil {
		t.Fatal("overlapping zones accepted")
	}
	unsharded := NewCluster(smallOpts())
	if err := unsharded.SetZones(nil); err == nil {
		t.Fatal("zones on unsharded collection accepted")
	}
}

func TestZonesHomeChunksAndPreserveData(t *testing.T) {
	c, ref := loadCluster(t, 3000, hilbertDateKey(), smallOpts())
	// Four zones over hilbertIndex (values are 0..4095).
	mk := func(v any) []byte { return keyenc.Encode(v) }
	zones := []Zone{
		{Name: "z0", Min: mk(bson.MinKey), Max: mk(int64(1024)), Shard: 0},
		{Name: "z1", Min: mk(int64(1024)), Max: mk(int64(2048)), Shard: 1},
		{Name: "z2", Min: mk(int64(2048)), Max: mk(int64(3072)), Shard: 2},
		{Name: "z3", Min: mk(int64(3072)), Max: mk(bson.MaxKey), Shard: 3},
	}
	if err := c.SetZones(zones); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Zones()); got != 4 {
		t.Fatalf("Zones() = %d", got)
	}
	// Every chunk must sit on its zone's shard.
	for _, ch := range c.Chunks() {
		for _, z := range zones {
			if z.Contains(ch.Min) {
				if ch.Shard != z.Shard {
					t.Fatalf("chunk %v on shard %d, zone %s wants %d", ch.Min, ch.Shard, z.Name, z.Shard)
				}
			}
		}
	}
	// Data survives the migrations.
	f := query.Cmp{Field: "hilbertIndex", Op: query.OpGTE, Value: int64(0)}
	want := query.Execute(ref, f, nil).Stats.NReturned
	if got := c.Query(f).TotalReturned; got != want {
		t.Fatalf("after zones: %d docs, want %d", got, want)
	}
	// A query inside one zone hits exactly one shard.
	res := c.Query(query.NewAnd(
		query.Cmp{Field: "hilbertIndex", Op: query.OpGTE, Value: int64(1100)},
		query.Cmp{Field: "hilbertIndex", Op: query.OpLTE, Value: int64(1200)},
	))
	if res.ShardsTargeted != 1 || res.TargetedShards[0] != 1 {
		t.Fatalf("zoned query targeted %v", res.TargetedShards)
	}
}

// TestZoneSplitKeepsCellsExact: a zone boundary that splits a chunk
// must leave both halves with the cells of their own documents. A
// right half without them once got fresh ones at its next insert that
// held that one document yet claimed to be exact, so the router pruned
// the chunk's shard for every older document in it.
func TestZoneSplitKeepsCellsExact(t *testing.T) {
	opts := smallOpts()
	opts.SummaryShift = 4
	c, ref := loadCluster(t, 2000, hilbertDateKey(), opts)
	if err := c.SetZones(ZonesFromSplits("hilbertIndex", []any{int64(2001)}, 4)); err != nil {
		t.Fatal(err)
	}
	doc := stDoc(bson.NewObjectIDGen(2), geo.Point{Lon: 23.5, Lat: 37.5}, baseTime, 2001)
	if err := c.Insert(doc); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Insert(doc.Clone()); err != nil {
		t.Fatal(err)
	}
	for _, f := range []query.Filter{hilbertCells(2017, 2032), hilbertCells(1990, 2100), hilbertCells(0, 4096)} {
		want := query.Execute(ref, f, nil).Stats.NReturned
		res := c.Query(f)
		if res.Err != nil || res.Partial || res.TotalReturned != want {
			t.Fatalf("%s: %d documents (pruned %d shards, partial %v, err %v), want %d",
				f, res.TotalReturned, res.ShardsPruned, res.Partial, res.Err, want)
		}
	}
	// Every chunk's cells are exact and hold the cell of every
	// document in it.
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, ch := range c.chunks {
		if !ch.sumExact {
			t.Fatalf("chunk [%x, %x) has no exact cells", ch.Min, ch.Max)
		}
		store := c.shards[ch.Shard].Coll.Store()
		for _, id := range c.chunkRecords(ch) {
			raw, _ := store.FetchRaw(id)
			cell, _ := c.summaryCellLocked(raw)
			if _, found := slices.BinarySearchFunc(ch.cells, cell, compareCell); !found {
				t.Fatalf("chunk [%x, %x): the cells miss cell %d of record %d", ch.Min, ch.Max, cell, id)
			}
		}
	}
	checkChunkCells(t, "zone split", c)
}

func TestZonesImproveLocalityVersusDefault(t *testing.T) {
	key := hilbertDateKey()
	cDefault, _ := loadCluster(t, 3000, key, smallOpts())
	cZoned, _ := loadCluster(t, 3000, key, smallOpts())
	splits, err := cZoned.BucketAuto("hilbertIndex", 4)
	if err != nil {
		t.Fatal(err)
	}
	zones := ZonesFromSplits("hilbertIndex", splits, 4)
	if err := cZoned.SetZones(zones); err != nil {
		t.Fatal(err)
	}
	// Aggregate shards targeted over a sweep of leading-field ranges.
	totalDefault, totalZoned := 0, 0
	for lo := int64(0); lo < 4096; lo += 256 {
		f := query.NewAnd(
			query.Cmp{Field: "hilbertIndex", Op: query.OpGTE, Value: lo},
			query.Cmp{Field: "hilbertIndex", Op: query.OpLTE, Value: lo + 255},
		)
		totalDefault += cDefault.Query(f).ShardsTargeted
		totalZoned += cZoned.Query(f).ShardsTargeted
	}
	if totalZoned > totalDefault {
		t.Fatalf("zones increased shards targeted: %d > %d", totalZoned, totalDefault)
	}
}

func TestHashedShardingScattersAndRoutesEquality(t *testing.T) {
	key := ShardKey{Fields: []string{"hilbertIndex", "date"}, Strategy: HashedSharding}
	c, ref := loadCluster(t, 3000, key, smallOpts())
	// Equality on the hashed field routes to a strict subset.
	eq := c.Query(query.Cmp{Field: "hilbertIndex", Op: query.OpEQ, Value: int64(77)})
	if eq.Broadcast {
		t.Fatal("hashed equality broadcast")
	}
	want := query.Execute(ref, query.Cmp{Field: "hilbertIndex", Op: query.OpEQ, Value: int64(77)}, nil).Stats.NReturned
	if eq.TotalReturned != want {
		t.Fatalf("hashed equality returned %d, want %d", eq.TotalReturned, want)
	}
	// A range on the hashed field must broadcast.
	rg := c.Query(query.NewAnd(
		query.Cmp{Field: "hilbertIndex", Op: query.OpGTE, Value: int64(0)},
		query.Cmp{Field: "hilbertIndex", Op: query.OpLTE, Value: int64(100)},
	))
	if !rg.Broadcast {
		t.Fatal("hashed range query did not broadcast")
	}
}

func TestBucketAutoEvenSplits(t *testing.T) {
	c, _ := loadCluster(t, 4000, hilbertDateKey(), smallOpts())
	splits, err := c.BucketAuto("hilbertIndex", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 3 {
		t.Fatalf("splits = %v", splits)
	}
	for i := 1; i < len(splits); i++ {
		if bson.Compare(splits[i-1], splits[i]) >= 0 {
			t.Fatalf("splits not increasing: %v", splits)
		}
	}
	// Roughly even buckets: each inner boundary near i*4096/4.
	for i, s := range splits {
		v, _ := bson.Int64Value(s)
		want := int64((i + 1) * 1024)
		if v < want-200 || v > want+200 {
			t.Fatalf("split %d = %d, want ~%d", i, v, want)
		}
	}
	if _, err := c.BucketAuto("hilbertIndex", 1); err == nil {
		t.Fatal("bucketAuto with 1 bucket accepted")
	}
	if _, err := NewCluster(smallOpts()).BucketAuto("x", 4); err == nil {
		t.Fatal("bucketAuto over empty cluster accepted")
	}
}

func TestHashValueDeterministicAndSpread(t *testing.T) {
	if HashValue(int64(5)) != HashValue(int64(5)) {
		t.Fatal("hash not deterministic")
	}
	seen := map[int64]bool{}
	for i := int64(0); i < 1000; i++ {
		seen[HashValue(i)] = true
	}
	if len(seen) < 990 {
		t.Fatalf("hash collisions: %d distinct of 1000", len(seen))
	}
}

func TestOptionsDefaults(t *testing.T) {
	c := NewCluster(Options{})
	if len(c.Shards()) != DefaultShards {
		t.Fatalf("default shards = %d", len(c.Shards()))
	}
	if c.Options().ChunkMaxBytes != DefaultChunkMaxBytes {
		t.Fatalf("default chunk size = %d", c.Options().ChunkMaxBytes)
	}
}
