package sharding

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/keyenc"
	"repro/internal/query"
	"repro/internal/storage"
)

// decodedChunkCells is every chunk's coarse cells as a scan of the
// decoded documents finds them: each stored document unmarshalled,
// placed in its chunk by its decoded tuple and counted in its cell by
// the decoded rule (refSummaryCell), sorted by cell. exact[i] is false
// when chunk i holds a document without a cell, and docs[i] counts the
// documents found in chunk i; a document on another shard than its
// chunk's fails the test. The caller holds the cluster lock.
func decodedChunkCells(t *testing.T, c *Cluster) (cells [][]cellCount, exact []bool, docs []int) {
	t.Helper()
	counts := make([]map[uint64]int, len(c.chunks))
	exact, docs = make([]bool, len(c.chunks)), make([]int, len(c.chunks))
	for i := range counts {
		counts[i], exact[i] = map[uint64]int{}, true
	}
	for sid, s := range c.shards {
		s.Coll.Store().Walk(func(_ storage.RecordID, raw []byte) bool {
			doc, err := bson.Unmarshal(raw)
			if err != nil {
				t.Fatalf("stored document does not decode: %v", err)
			}
			ci := c.findChunk(c.key.TupleOf(doc))
			if ci < 0 || c.chunks[ci].Shard != sid {
				t.Fatalf("shard %d holds a document of chunk %d", sid, ci)
			}
			docs[ci]++
			if cell, ok := refSummaryCell(doc, c.key.Fields[0], c.opts.SummaryShift); ok {
				counts[ci][cell]++
			} else {
				exact[ci] = false
			}
			return true
		})
	}
	cells = make([][]cellCount, len(c.chunks))
	for i, m := range counts {
		for cell, n := range m {
			cells[i] = append(cells[i], cellCount{cell: cell, n: n})
		}
		slices.SortFunc(cells[i], func(a, b cellCount) int { return compareCell(a, b.cell) })
	}
	return cells, exact, docs
}

// checkChunkCells holds every chunk's maintained cells to a scan of
// its decoded documents: with summaries on, the same (cell, count)
// list and the same exactness; with them off, no cells at all.
func checkChunkCells(t *testing.T, label string, c *Cluster) {
	t.Helper()
	cells, exact, _ := decodedChunkCells(t, c)
	for i, ch := range c.chunks {
		if !c.summariesOnLocked() {
			if len(ch.cells) != 0 {
				t.Fatalf("%s: chunk %d keeps %d cells with summaries off", label, i, len(ch.cells))
			}
			continue
		}
		if ch.sumExact != exact[i] || !slices.Equal(ch.cells, cells[i]) {
			t.Fatalf("%s: chunk %d keeps cells %v (exact %v), its documents occupy %v (exact %v)",
				label, i, ch.cells, ch.sumExact, cells[i], exact[i])
		}
	}
}

// checkInvariants verifies the cluster's metadata against its actual
// data: chunks tile the key space, every chunk's documents live on
// its shard, chunk doc counts are accurate, no document exists
// outside its chunk, and every chunk's cells are exactly those its
// documents occupy.
func checkInvariants(t *testing.T, c *Cluster) {
	t.Helper()
	c.mu.RLock()
	defer c.mu.RUnlock()
	if !c.sharded {
		return
	}
	// Tiling.
	if !bytes.Equal(c.chunks[0].Min, c.key.MinTuple()) {
		t.Fatal("invariant: first chunk min != MinKey tuple")
	}
	if !bytes.Equal(c.chunks[len(c.chunks)-1].Max, c.key.MaxTuple()) {
		t.Fatal("invariant: last chunk max != MaxKey tuple")
	}
	for i := 1; i < len(c.chunks); i++ {
		if !bytes.Equal(c.chunks[i-1].Max, c.chunks[i].Min) {
			t.Fatalf("invariant: chunk gap at %d", i)
		}
	}
	// Per-chunk document placement and counts.
	totalMeta := 0
	for ci, ch := range c.chunks {
		if ch.Shard < 0 || ch.Shard >= len(c.shards) {
			t.Fatalf("invariant: chunk %d on unknown shard %d", ci, ch.Shard)
		}
		totalMeta += ch.Docs
		got := len(c.chunkRecords(ch))
		if got != ch.Docs {
			t.Fatalf("invariant: chunk %d metadata says %d docs, shard holds %d", ci, ch.Docs, got)
		}
	}
	totalActual := 0
	for _, s := range c.shards {
		totalActual += s.Coll.Len()
	}
	if totalMeta != totalActual {
		t.Fatalf("invariant: chunk doc counts sum to %d, shards hold %d", totalMeta, totalActual)
	}
	// Zones: every zoned chunk sits on its zone's shard.
	for _, ch := range c.chunks {
		if home := c.zoneShardFor(ch); home >= 0 && home != ch.Shard {
			t.Fatalf("invariant: chunk on shard %d but zoned to %d", ch.Shard, home)
		}
	}
	checkChunkCells(t, "invariant", c)
}

// TestClusterInvariantsUnderRandomOperations drives a cluster with a
// random mix of inserts, explicit balances and zone reconfigurations,
// checking the metadata invariants throughout. The first two seeds keep
// chunk cells, so their exactness is checked after every insert, split
// and move; the third keeps none.
func TestClusterInvariantsUnderRandomOperations(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			opts := Options{Shards: 4, ChunkMaxBytes: 8 << 10, AutoBalanceEvery: 200}
			if seed < 3 {
				opts.SummaryShift = 4
			}
			c := NewCluster(opts)
			if err := c.ShardCollection(hilbertDateKey()); err != nil {
				t.Fatal(err)
			}
			gen := bson.NewObjectIDGen(uint64(seed))
			inserted := 0
			for step := 0; step < 30; step++ {
				switch rng.Intn(10) {
				case 8:
					c.Balance()
				case 9:
					// Re-zone on random split points.
					n := 2 + rng.Intn(3)
					var splits []any
					last := int64(0)
					for i := 0; i < n-1; i++ {
						last += int64(1 + rng.Intn(2000))
						splits = append(splits, last)
					}
					zones := ZonesFromSplits("hilbertIndex", splits, 4)
					if err := c.SetZones(zones); err != nil {
						t.Fatal(err)
					}
				default:
					for i := 0; i < 100; i++ {
						doc := stDoc(gen,
							geo.Point{Lon: 23 + rng.Float64(), Lat: 37 + rng.Float64()},
							baseTime.Add(time.Duration(rng.Int63n(int64(30*24*time.Hour)))),
							int64(rng.Intn(4096)))
						if err := c.Insert(doc); err != nil {
							t.Fatal(err)
						}
						inserted++
					}
				}
				checkInvariants(t, c)
			}
			if got := c.ClusterStats().Docs; got != inserted {
				t.Fatalf("cluster holds %d docs, inserted %d", got, inserted)
			}
		})
	}
}

// TestBalanceConcurrentWithBroadcastQueries runs the balancer while
// broadcast queries hammer the cluster: every query must observe the
// complete document multiset — a chunk migration may never make a
// document invisible on its source before it is queryable on its
// destination, and never visible on both.
func TestBalanceConcurrentWithBroadcastQueries(t *testing.T) {
	// No auto-balancing during the load, so every chunk piles up on
	// shard 0 and the explicit Balance below has real migrations to do.
	c := NewCluster(Options{Shards: 4, ChunkMaxBytes: 8 << 10, AutoBalanceEvery: -1})
	if err := c.ShardCollection(hilbertDateKey()); err != nil {
		t.Fatal(err)
	}
	gen := bson.NewObjectIDGen(11)
	rng := rand.New(rand.NewSource(23))
	const n = 3000
	for i := 0; i < n; i++ {
		doc := stDoc(gen,
			geo.Point{Lon: 23 + rng.Float64(), Lat: 37 + rng.Float64()},
			baseTime.Add(time.Duration(rng.Int63n(int64(30*24*time.Hour)))),
			int64(rng.Intn(4096)))
		if err := c.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	counts := c.ClusterStats()
	if counts.PerShard[0].Chunks < 4 {
		t.Fatalf("load did not pile chunks on shard 0: %+v", counts.PerShard)
	}

	f := query.GeoWithin{Field: "location", Rect: geo.NewRect(22.0, 36.0, 25.0, 39.0)}
	want := sortedIDs(c.Query(f).Docs)
	if len(want) != n {
		t.Fatalf("baseline broadcast returned %d docs, want %d", len(want), n)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				got := sortedIDs(c.Query(f).Docs)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("broadcast during balance saw %d docs, want %d", len(got), len(want))
					return
				}
			}
		}()
	}
	c.Balance()
	close(done)
	wg.Wait()

	checkInvariants(t, c)
	if got := sortedIDs(c.Query(f).Docs); !reflect.DeepEqual(got, want) {
		t.Fatal("document multiset changed across the balance run")
	}
	if c.ClusterStats().Migrations == 0 {
		t.Fatal("vacuous: the balancer moved nothing")
	}
}

// TestBalanceConcurrentWithIngestAndQueries races all three: the
// balancer migrating chunks, the group-commit batcher applying
// batches, and broadcast queries reading. Every query must see each
// preloaded document exactly once (migrations may never hide or
// double-show a doc), plus some prefix of the concurrent ingest; the
// quiesced cluster must hold exactly baseline + ingested.
func TestBalanceConcurrentWithIngestAndQueries(t *testing.T) {
	c := NewCluster(Options{Shards: 4, ChunkMaxBytes: 8 << 10, AutoBalanceEvery: -1})
	if err := c.ShardCollection(hilbertDateKey()); err != nil {
		t.Fatal(err)
	}
	gen := bson.NewObjectIDGen(31)
	rng := rand.New(rand.NewSource(37))
	const n = 3000
	for i := 0; i < n; i++ {
		doc := stDoc(gen,
			geo.Point{Lon: 23 + rng.Float64(), Lat: 37 + rng.Float64()},
			baseTime.Add(time.Duration(rng.Int63n(int64(30*24*time.Hour)))),
			int64(rng.Intn(4096)))
		if err := c.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	f := query.GeoWithin{Field: "location", Rect: geo.NewRect(22.0, 36.0, 25.0, 39.0)}
	base := sortedIDs(c.Query(f).Docs)
	baseSet := make(map[string]struct{}, len(base))
	for _, id := range base {
		baseSet[id] = struct{}{}
	}

	in := NewIngester(c)
	done := make(chan struct{})
	var wg sync.WaitGroup

	// Readers: exactly-once visibility of the baseline, no duplicate
	// _ids anywhere in any snapshot.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				got := sortedIDs(c.Query(f).Docs)
				seen := make(map[string]struct{}, len(got))
				baseSeen := 0
				for _, id := range got {
					if _, dup := seen[id]; dup {
						t.Errorf("query saw duplicate _id %s during balance+ingest", id)
						return
					}
					seen[id] = struct{}{}
					if _, ok := baseSet[id]; ok {
						baseSeen++
					}
				}
				if baseSeen != len(base) {
					t.Errorf("query saw %d/%d baseline docs during balance+ingest", baseSeen, len(base))
					return
				}
			}
		}()
	}

	// Writers: idempotent batches through the batcher.
	const writers, perWriter, batchDocs = 3, 8, 16
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < perWriter; b++ {
				docs := ingestDocs(int64(7000+w*perWriter+b), batchDocs)
				id := fmt.Sprintf("bal-w%d/%d", w, b)
				if _, dup, err := insertDocs(context.Background(), in, id, docs); err != nil || dup {
					t.Errorf("ingest %s: dup=%v err=%v", id, dup, err)
					return
				}
			}
		}(w)
	}

	for i := 0; i < 3; i++ {
		c.Balance()
	}
	close(done)
	wg.Wait()
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	c.Balance() // settle whatever the concurrent ingest skewed

	checkInvariants(t, c)
	if got := c.ClusterStats().Docs; got != n+writers*perWriter*batchDocs {
		t.Fatalf("quiesced cluster holds %d docs, want %d", got, n+writers*perWriter*batchDocs)
	}
	final := sortedIDs(c.Query(f).Docs)
	if len(final) != n+writers*perWriter*batchDocs {
		t.Fatalf("final broadcast returned %d docs, want %d", len(final), n+writers*perWriter*batchDocs)
	}
	if c.ClusterStats().Migrations == 0 {
		t.Fatal("vacuous: the balancer moved nothing")
	}
}

// sortedIDs extracts the _id multiset of a result.
func sortedIDs(docs []bson.Raw) []string {
	ids := make([]string, 0, len(docs))
	for _, d := range docs {
		ids = append(ids, fmt.Sprintf("%v", d.Get("_id")))
	}
	slices.Sort(ids)
	return ids
}

// TestSnapshotAccessorsAreDefensive mutates everything the cluster's
// observability accessors return while queries run — under -race this
// fails if any of them alias live router state.
func TestSnapshotAccessorsAreDefensive(t *testing.T) {
	c, _ := loadCluster(t, 1000, hilbertDateKey(), smallOpts())
	f := query.GeoWithin{Field: "location", Rect: geo.NewRect(22.0, 36.0, 25.0, 39.0)}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			c.Query(f)
		}
	}()

	for i := 0; i < 50; i++ {
		states := c.BreakerStates()
		for sid := range states {
			states[sid] = "mutated"
		}
		states[len(states)+1] = "extra"

		shards := c.Shards()
		for j := range shards {
			shards[j] = nil
		}

		chunks := c.Chunks()
		for j := range chunks {
			chunks[j].Docs = -1
			chunks[j].Shard = -1
		}

		st := c.ClusterStats()
		for j := range st.PerShard {
			st.PerShard[j].Docs = -1
		}
	}
	close(done)
	wg.Wait()

	// The real state survived the vandalism.
	for sid, state := range c.BreakerStates() {
		if state == "mutated" {
			t.Fatalf("breaker state for shard %d aliased the returned map", sid)
		}
	}
	if c.Shards()[0] == nil {
		t.Fatal("shard list aliased the returned slice")
	}
	checkInvariants(t, c)
}

// TestZonesFromSplitsCoverKeySpace verifies the generated zones tile
// the single-field prefix space.
func TestZonesFromSplitsCoverKeySpace(t *testing.T) {
	zones := ZonesFromSplits("f", []any{int64(10), int64(20)}, 3)
	if len(zones) != 3 {
		t.Fatalf("%d zones", len(zones))
	}
	if !bytes.Equal(zones[0].Min, keyenc.Encode(bson.MinKey)) {
		t.Fatal("first zone does not start at MinKey")
	}
	if !bytes.Equal(zones[len(zones)-1].Max, keyenc.Encode(bson.MaxKey)) {
		t.Fatal("last zone does not end at MaxKey")
	}
	for i := 1; i < len(zones); i++ {
		if !bytes.Equal(zones[i-1].Max, zones[i].Min) {
			t.Fatalf("zone gap at %d", i)
		}
	}
	// Shards assigned round-robin.
	if zones[0].Shard != 0 || zones[1].Shard != 1 || zones[2].Shard != 2 {
		t.Fatalf("zone shards: %d %d %d", zones[0].Shard, zones[1].Shard, zones[2].Shard)
	}
}
