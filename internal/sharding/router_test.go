package sharding

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/wal"
)

// TestRoutingNeverLosesResults is the router's core safety property:
// for random spatio-temporal filters, the routed execution returns
// exactly what executing on every shard would return. Routing may
// over-target but must never under-target.
func TestRoutingNeverLosesResults(t *testing.T) {
	for _, key := range []ShardKey{
		{Fields: []string{"date"}},
		{Fields: []string{"hilbertIndex", "date"}},
		{Fields: []string{"hilbertIndex", "date"}, Strategy: HashedSharding},
	} {
		c, _ := loadCluster(t, 3000, key, smallOpts())
		rng := rand.New(rand.NewSource(31))
		for trial := 0; trial < 60; trial++ {
			lo := int64(rng.Intn(4096))
			hi := lo + int64(rng.Intn(512))
			from := baseTime.Add(time.Duration(rng.Intn(25*24)) * time.Hour)
			to := from.Add(time.Duration(1+rng.Intn(5*24)) * time.Hour)
			var f query.Filter = cellWindow(lo, hi, from, to)
			if trial%3 == 0 { // equality point
				f = cellWindow(lo, lo, from, to)
			}
			routed := c.Query(f)
			// Reference: run on every shard directly.
			want := 0
			for _, s := range c.Shards() {
				want += query.Execute(s.Coll, f, nil).Stats.NReturned
			}
			if routed.TotalReturned != want {
				t.Fatalf("key %s trial %d: routed %d results, all-shards %d",
					key, trial, routed.TotalReturned, want)
			}
		}
	}
}

// TestJumboChunkSingleKeyValue forces every document onto one shard
// key value: the chunk cannot split (jumbo) and the cluster must
// stay correct. The one chunk is found jumbo once, not on every insert.
func TestJumboChunkSingleKeyValue(t *testing.T) {
	c := NewCluster(Options{Shards: 3, ChunkMaxBytes: 4 << 10, AutoBalanceEvery: 128})
	if err := c.ShardCollection(ShardKey{Fields: []string{"hilbertIndex"}}); err != nil {
		t.Fatal(err)
	}
	gen := bson.NewObjectIDGen(5)
	for i := 0; i < 800; i++ {
		doc := stDoc(gen, geo.Point{Lon: 23.76, Lat: 37.99}, baseTime.Add(time.Duration(i)*time.Minute), 777)
		if err := c.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	st := c.ClusterStats()
	if st.Jumbo != 1 || st.Chunks != 1 {
		t.Fatalf("%d jumbo findings over %d chunks, want one jumbo chunk", st.Jumbo, st.Chunks)
	}
	res := c.Query(cellRange(int64(777), int64(777)))
	if res.TotalReturned != 800 {
		t.Fatalf("jumbo cluster returned %d docs", res.TotalReturned)
	}
}

// TestJumboChunkSurvivesCheckpoint: a snapshot keeps the jumbo count,
// and reopening finds the jumbo chunk again without counting it, so
// inserts of its one tuple after the restart count nothing either.
func TestJumboChunkSurvivesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 3, ChunkMaxBytes: 4 << 10, AutoBalanceEvery: 128, Dir: dir, Sync: wal.SyncNever}
	c := openDurable(t, opts)
	if err := c.ShardCollection(ShardKey{Fields: []string{"hilbertIndex"}}); err != nil {
		t.Fatal(err)
	}
	gen := bson.NewObjectIDGen(6)
	insert := func(c *Cluster, from, n int) {
		for i := from; i < from+n; i++ {
			doc := stDoc(gen, geo.Point{Lon: 23.76, Lat: 37.99}, baseTime.Add(time.Duration(i)*time.Minute), 777)
			if err := c.Insert(doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(c, 0, 200)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	r := openDurable(t, opts)
	defer r.Close()
	insert(r, 200, 50)
	if st := r.ClusterStats(); st.Jumbo != 1 {
		t.Fatalf("reopened cluster counts %d jumbo findings, want 1", st.Jumbo)
	}
}

// TestCompoundKeyAvoidsJumbo is Section 4.2.2's argument: with
// {hilbertIndex, date}, a hot cell still splits on the temporal
// dimension.
func TestCompoundKeyAvoidsJumbo(t *testing.T) {
	c := NewCluster(Options{Shards: 3, ChunkMaxBytes: 4 << 10, AutoBalanceEvery: 128})
	if err := c.ShardCollection(ShardKey{Fields: []string{"hilbertIndex", "date"}}); err != nil {
		t.Fatal(err)
	}
	gen := bson.NewObjectIDGen(5)
	for i := 0; i < 800; i++ {
		doc := stDoc(gen, geo.Point{Lon: 23.76, Lat: 37.99}, baseTime.Add(time.Duration(i)*time.Minute), 777)
		if err := c.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	st := c.ClusterStats()
	if st.Jumbo != 0 {
		t.Fatalf("%d jumbo chunks despite compound key", st.Jumbo)
	}
	if st.Chunks < 4 {
		t.Fatalf("hot cell did not split temporally: %d chunks", st.Chunks)
	}
	// The hot cell's chunks spread across shards.
	shardsUsed := map[int]bool{}
	for _, ch := range c.Chunks() {
		if ch.Docs > 0 {
			shardsUsed[ch.Shard] = true
		}
	}
	if len(shardsUsed) < 2 {
		t.Fatalf("hot cell stayed on %d shard(s)", len(shardsUsed))
	}
}

// TestMigrationPreservesEveryDocument moves chunks around explicitly
// and verifies no document is lost or duplicated.
func TestMigrationPreservesEveryDocument(t *testing.T) {
	c, ref := loadCluster(t, 2000, hilbertDateKey(), smallOpts())
	before := c.ClusterStats().Docs
	// Force a full rehoming by zoning everything to shard 3.
	key, _ := c.ShardKeyOf()
	if err := c.SetZones([]Zone{{
		Name:  "all",
		Min:   key.MinTuple(),
		Max:   key.MaxTuple(),
		Shard: 3,
	}}); err != nil {
		t.Fatal(err)
	}
	st := c.ClusterStats()
	if st.Docs != before {
		t.Fatalf("doc count changed across migration: %d -> %d", before, st.Docs)
	}
	for i, ss := range st.PerShard {
		if i == 3 {
			if ss.Docs != before {
				t.Fatalf("zone shard holds %d of %d docs", ss.Docs, before)
			}
		} else if ss.Docs != 0 {
			t.Fatalf("shard %d still holds %d docs", i, ss.Docs)
		}
	}
	// Every original document is still queryable exactly once.
	f := cellRange(0, 1<<40)
	want := query.Execute(ref, f, nil).Stats.NReturned
	if got := c.Query(f).TotalReturned; got != want {
		t.Fatalf("after rehoming: %d docs, want %d", got, want)
	}
}

// TestBalancerKeepsRunsForMonotonicKeys checks the behaviour the
// paper's node-count metrics rest on: with a date shard key and
// time-ordered inserts, the balancer distributes every chunk while
// keeping counts even.
func TestBalancerEvenAfterMonotonicLoad(t *testing.T) {
	c := NewCluster(Options{Shards: 6, ChunkMaxBytes: 8 << 10, AutoBalanceEvery: 256})
	if err := c.ShardCollection(ShardKey{Fields: []string{"date"}}); err != nil {
		t.Fatal(err)
	}
	gen := bson.NewObjectIDGen(9)
	for i := 0; i < 3000; i++ {
		doc := stDoc(gen, geo.Point{Lon: 23 + float64(i%100)/100, Lat: 37.5},
			baseTime.Add(time.Duration(i)*time.Minute), int64(i%512))
		if err := c.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	c.Balance()
	counts := map[int]int{}
	for _, ch := range c.Chunks() {
		counts[ch.Shard]++
	}
	min, max := 1<<30, 0
	for i := 0; i < 6; i++ {
		if counts[i] < min {
			min = counts[i]
		}
		if counts[i] > max {
			max = counts[i]
		}
	}
	if max-min > 1 {
		t.Fatalf("uneven chunk counts after monotonic load: %v", counts)
	}
}

// TestConcurrentQueriesDuringInserts exercises the read path under a
// concurrent writer.
func TestConcurrentQueriesDuringInserts(t *testing.T) {
	c, _ := loadCluster(t, 1000, hilbertDateKey(), smallOpts())
	done := make(chan struct{})
	go func() {
		defer close(done)
		gen := bson.NewObjectIDGen(77)
		for i := 0; i < 500; i++ {
			doc := stDoc(gen, geo.Point{Lon: 23.5, Lat: 37.5},
				baseTime.Add(time.Duration(i)*time.Second), int64(i%4096))
			if err := c.Insert(doc); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	}()
	f := cellRange(int64(0), int64(4096))
	for i := 0; i < 50; i++ {
		res := c.Query(f)
		if res.TotalReturned < 1000 {
			t.Fatalf("query lost pre-existing docs: %d", res.TotalReturned)
		}
	}
	<-done
	if got := c.Query(f).TotalReturned; got != 1500 {
		t.Fatalf("final count %d, want 1500", got)
	}
}
