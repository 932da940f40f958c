package sharding

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/keyenc"
	"repro/internal/leakcheck"
)

// ingestDocs generates n deterministic spatio-temporal documents with
// unique _ids; different seeds yield disjoint id spaces.
func ingestDocs(seed int64, n int) []*bson.Document {
	rng := rand.New(rand.NewSource(seed))
	gen := bson.NewObjectIDGen(uint64(seed))
	docs := make([]*bson.Document, n)
	for i := range docs {
		p := geo.Point{Lon: 23 + rng.Float64(), Lat: 37 + rng.Float64()}
		at := baseTime.Add(time.Duration(rng.Int63n(int64(30 * 24 * time.Hour))))
		docs[i] = stDoc(gen, p, at, int64(rng.Intn(4096)))
	}
	return docs
}

// insertDocs is the tests' one encoding step: it marshals docs and hands
// them to the write-path boundary, which takes bytes only.
func insertDocs(ctx context.Context, in BatchInserter, batchID string, docs []*bson.Document) (applied int, dup bool, err error) {
	return in.InsertBatchRaw(ctx, batchID, bson.MarshalAll(docs))
}

func shardedCluster(t testing.TB, opts Options) *Cluster {
	t.Helper()
	c := NewCluster(opts)
	if err := c.ShardCollection(hilbertDateKey()); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestInsertBatchIdempotent: a batch ID in the dedup window answers
// dup without touching the store; an empty ID opts out.
func TestInsertBatchIdempotent(t *testing.T) {
	c := shardedCluster(t, smallOpts())
	docs := ingestDocs(1, 32)

	applied, dup, err := c.InsertBatch("b1", docs)
	if err != nil || dup || applied != len(docs) {
		t.Fatalf("first apply: applied=%d dup=%v err=%v", applied, dup, err)
	}
	before, beforeSum := c.ContentFingerprint()

	applied, dup, err = c.InsertBatch("b1", docs)
	if err != nil || !dup || applied != 0 {
		t.Fatalf("retry: applied=%d dup=%v err=%v", applied, dup, err)
	}
	if d, s := c.ContentFingerprint(); d != before || s != beforeSum {
		t.Fatalf("retry changed content: %d/%016x, want %d/%016x", d, s, before, beforeSum)
	}

	// Empty batch ID: no idempotency, the same docs apply again (the
	// store allows duplicate _ids across shards by design of the test
	// data — each call stores len(docs) more records).
	applied, dup, err = c.InsertBatch("", ingestDocs(2, 8))
	if err != nil || dup || applied != 8 {
		t.Fatalf("anonymous batch: applied=%d dup=%v err=%v", applied, dup, err)
	}
	applied, dup, err = c.InsertBatch("", ingestDocs(3, 8))
	if err != nil || dup || applied != 8 {
		t.Fatalf("second anonymous batch: applied=%d dup=%v err=%v", applied, dup, err)
	}
}

// TestDedupWindowEviction: the window is a bounded retry horizon —
// IDs older than its capacity are forgotten and re-apply.
func TestDedupWindowEviction(t *testing.T) {
	c := shardedCluster(t, smallOpts())
	c.dedup = newDedupWindow(4)

	for i := 0; i < 6; i++ {
		docs := ingestDocs(int64(10+i), 2)
		if _, dup, err := c.InsertBatch(fmt.Sprintf("b%d", i), docs); err != nil || dup {
			t.Fatalf("batch %d: dup=%v err=%v", i, dup, err)
		}
	}
	// b0 and b1 were evicted by b4 and b5; b2 is still remembered.
	if _, dup, err := c.InsertBatch("b2", ingestDocs(12, 2)); err != nil || !dup {
		t.Fatalf("b2 should still dedup: dup=%v err=%v", dup, err)
	}
	if _, dup, err := c.InsertBatch("b0", ingestDocs(10, 2)); err != nil || dup {
		t.Fatalf("b0 should have been evicted: dup=%v err=%v", dup, err)
	}
}

// TestInsertBatchDurable: batches and their dedup marks survive both
// journal replay and snapshot restore.
func TestInsertBatchDurable(t *testing.T) {
	dir := t.TempDir()
	c := openDurable(t, durOpts(dir, nil))
	if err := c.ShardCollection(hilbertDateKey()); err != nil {
		t.Fatal(err)
	}
	var want clusterState
	batches := make([][]*bson.Document, 5)
	for i := range batches {
		batches[i] = ingestDocs(int64(20+i), 16)
		if _, dup, err := c.InsertBatch(fmt.Sprintf("b%d", i), batches[i]); err != nil || dup {
			t.Fatalf("batch %d: dup=%v err=%v", i, dup, err)
		}
	}
	want = captureState(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Journal replay.
	r := openDurable(t, durOpts(dir, nil))
	requireStateEqual(t, "journal replay", captureState(t, r), want)
	for i := range batches {
		if _, dup, err := r.InsertBatch(fmt.Sprintf("b%d", i), batches[i]); err != nil || !dup {
			t.Fatalf("replayed window lost b%d: dup=%v err=%v", i, dup, err)
		}
	}
	requireStateEqual(t, "after dup retries", captureState(t, r), want)

	// Snapshot restore (checkpoint truncates the journal; the window
	// must ride in the snapshot payload).
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := openDurable(t, durOpts(dir, nil))
	requireStateEqual(t, "snapshot restore", captureState(t, r2), want)
	for i := range batches {
		if _, dup, err := r2.InsertBatch(fmt.Sprintf("b%d", i), batches[i]); err != nil || !dup {
			t.Fatalf("snapshot window lost b%d: dup=%v err=%v", i, dup, err)
		}
	}
	r2.Close()
}

// TestIngesterGroupCommit: concurrent writers through the batcher
// produce exactly the reference content, and the committer actually
// coalesces (commits < batches under concurrency is likely but not
// guaranteed, so only the invariant commits <= batches is asserted).
func TestIngesterGroupCommit(t *testing.T) {
	leakcheck.Check(t)
	c := shardedCluster(t, smallOpts())
	in := NewIngester(c)
	defer in.Close()

	ref := shardedCluster(t, smallOpts())
	const writers, batches = 8, 12
	all := make([][][]*bson.Document, writers)
	for w := range all {
		all[w] = make([][]*bson.Document, batches)
		for b := range all[w] {
			all[w][b] = ingestDocs(int64(100+w*batches+b), 8)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b, docs := range all[w] {
				id := fmt.Sprintf("w%d/%d", w, b)
				if _, dup, err := insertDocs(context.Background(), in, id, docs); err != nil || dup {
					errs <- fmt.Errorf("w%d/%d: dup=%v err=%v", w, b, dup, err)
					return
				}
				// Every batch retried once: the window must absorb it.
				if _, dup, err := insertDocs(context.Background(), in, id, docs); err != nil || !dup {
					errs <- fmt.Errorf("w%d/%d retry: dup=%v err=%v", w, b, dup, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for w := range all {
		for _, docs := range all[w] {
			for _, doc := range docs {
				if err := ref.Insert(doc.Clone()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	gd, gs := c.ContentFingerprint()
	wd, ws := ref.ContentFingerprint()
	if gd != wd || gs != ws {
		t.Fatalf("content diverged: %d/%016x, want %d/%016x", gd, gs, wd, ws)
	}

	st := in.Stats()
	// Every client batch went through twice (original + dup retry);
	// Batches counts both, Dups only the retries.
	if st.Batches != writers*batches*2 {
		t.Fatalf("Batches=%d, want %d", st.Batches, writers*batches*2)
	}
	if st.Dups != writers*batches {
		t.Fatalf("Dups=%d, want %d", st.Dups, writers*batches)
	}
	if st.Commits == 0 || st.Commits > st.Batches {
		t.Fatalf("Commits=%d out of range (batches=%d)", st.Commits, st.Batches)
	}
	if st.Applied != writers*batches*8 {
		t.Fatalf("Applied=%d, want %d", st.Applied, writers*batches*8)
	}
	if st.Queued != 0 {
		t.Fatalf("Queued=%d after quiesce", st.Queued)
	}
}

// TestIngesterCancelMidBatch: cancelling the enqueue context returns
// the caller early, leaks nothing, and leaves the cluster consistent
// — the admitted batch still commits, so a retry under the same ID
// dedups.
func TestIngesterCancelMidBatch(t *testing.T) {
	leakcheck.Check(t)
	c := shardedCluster(t, smallOpts())
	in := NewIngester(c)

	docs := ingestDocs(400, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // poisoned before the call: covers the ctx.Done select arms
	_, _, err := insertDocs(ctx, in, "cancelled", docs)
	if err == nil {
		// The race between admission and cancellation may legitimately
		// admit and commit first; then the call reports success.
		t.Log("batch committed before cancellation was observed")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Whatever the early return said, the batch either fully applied
	// or was never admitted; the retry converges on applied-exactly-once.
	applied, dup, err := insertDocs(context.Background(), in, "cancelled", docs)
	if err != nil {
		t.Fatal(err)
	}
	if !dup && applied != len(docs) {
		t.Fatalf("retry applied %d docs, dup=%v", applied, dup)
	}
	docsN, _ := c.ContentFingerprint()
	if docsN != len(docs) {
		t.Fatalf("cluster holds %d docs, want %d (exactly-once)", docsN, len(docs))
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	// Writes after Close are refused.
	if _, _, err := insertDocs(context.Background(), in, "late", docs); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close enqueue: %v", err)
	}
}

// TestClosedClusterRefusesWrites: after Close, a durable cluster refuses
// an insert batch, a group commit and a load with ErrClosed before any
// of it is journaled or applied — the fingerprint is the one Close saw,
// and so is a reopen's. A second Close returns nil.
func TestClosedClusterRefusesWrites(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	c := openDurable(t, durOpts(dir, nil))
	if err := c.ShardCollection(hilbertDateKey()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.InsertBatch("early", ingestDocs(600, 5)); err != nil {
		t.Fatal(err)
	}
	wantDocs, wantSum := c.ContentFingerprint()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	if applied, _, err := c.InsertBatch("late", ingestDocs(610, 5)); !errors.Is(err, ErrClosed) || applied != 0 {
		t.Fatalf("insert after Close: applied=%d err=%v, want 0 and ErrClosed", applied, err)
	}
	in := NewIngester(c)
	if applied, _, err := insertDocs(context.Background(), in, "late-group", ingestDocs(620, 5)); !errors.Is(err, ErrClosed) || applied != 0 {
		t.Fatalf("group commit after Close: applied=%d err=%v, want 0 and ErrClosed", applied, err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Load(bson.MarshalAll(ingestDocs(630, 5))); !errors.Is(err, ErrClosed) {
		t.Fatalf("load after Close: %v, want ErrClosed", err)
	}
	if docs, sum := c.ContentFingerprint(); docs != wantDocs || sum != wantSum {
		t.Fatalf("closed cluster holds (%d, %016x), want (%d, %016x)", docs, sum, wantDocs, wantSum)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	r := openDurable(t, durOpts(dir, nil))
	defer r.Close()
	if docs, sum := r.ContentFingerprint(); docs != wantDocs || sum != wantSum {
		t.Fatalf("reopen holds (%d, %016x), want (%d, %016x)", docs, sum, wantDocs, wantSum)
	}
}

// TestClosedClusterRefusesBalanceAndDDL: after Close, Balance and the
// DDL calls return ErrClosed before they apply anything, so the closed
// cluster's chunk map stays the one a reopen recovers. With the
// balancer never run, every chunk of the loaded cluster is on shard 0,
// and a Balance that applied in memory would spread them.
func TestClosedClusterRefusesBalanceAndDDL(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	opts := durOpts(dir, nil)
	opts.AutoBalanceEvery = -1
	c := openDurable(t, opts)
	if err := c.ShardCollection(hilbertDateKey()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.InsertBatch("load", ingestDocs(650, 2000)); err != nil {
		t.Fatal(err)
	}
	placement := func(c *Cluster) []int {
		var shards []int
		for _, ch := range c.Chunks() {
			shards = append(shards, ch.Shard)
		}
		return shards
	}
	want, indexes := placement(c), len(c.Shards()[0].Coll.Indexes())
	if len(want) < 2 || slices.ContainsFunc(want, func(s int) bool { return s != 0 }) {
		t.Fatalf("loaded placement %v, want several chunks, all on shard 0", want)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	if err := c.Balance(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Balance after Close: %v, want ErrClosed", err)
	}
	if err := c.ShardCollection(hilbertDateKey()); !errors.Is(err, ErrClosed) {
		t.Fatalf("ShardCollection after Close: %v, want ErrClosed", err)
	}
	def := index.Definition{Name: "date_1", Fields: []index.Field{{Name: "date", Kind: index.Ascending}}}
	if err := c.CreateIndex(def); !errors.Is(err, ErrClosed) {
		t.Fatalf("CreateIndex after Close: %v, want ErrClosed", err)
	}
	zone := Zone{Name: "z", Min: keyenc.EncodeComposite(int64(0)), Max: keyenc.EncodeComposite(int64(1 << 20)), Shard: 1}
	if err := c.SetZones([]Zone{zone}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SetZones after Close: %v, want ErrClosed", err)
	}
	if got := placement(c); !slices.Equal(got, want) {
		t.Fatalf("closed cluster's placement %v, want %v", got, want)
	}
	if n := len(c.Shards()[0].Coll.Indexes()); n != indexes {
		t.Fatalf("closed cluster holds %d indexes per shard, want %d", n, indexes)
	}
	if len(c.Zones()) != 0 {
		t.Fatal("closed cluster installed zones")
	}

	r := openDurable(t, opts)
	defer r.Close()
	if got := placement(r); !slices.Equal(got, want) {
		t.Fatalf("reopened placement %v, want %v", got, want)
	}
}

// TestOversizedRecordRefusedBeforeApplying: on a durable cluster a
// batch, or a slice of a load, whose journal record would exceed
// wal.MaxFrameBody is refused permanently before anything is journaled
// or applied; an in-memory cluster, which journals nothing, takes both.
func TestOversizedRecordRefusedBeforeApplying(t *testing.T) {
	docs := ingestDocs(640, 17)
	for _, d := range docs {
		d.Set("pad", strings.Repeat("x", 1<<20))
	}
	raw := bson.MarshalAll(docs)

	dir := t.TempDir()
	c := openDurable(t, durOpts(dir, nil))
	if err := c.ShardCollection(hilbertDateKey()); err != nil {
		t.Fatal(err)
	}
	applied, _, err := c.InsertBatchRaw("big", raw)
	if !errors.Is(err, errBatchRecordTooLarge) || IsTransient(err) || applied != 0 {
		t.Fatalf("oversized batch: applied=%d err=%v, want 0 and a permanent refusal", applied, err)
	}
	if err := c.Load(raw); !errors.Is(err, errBatchRecordTooLarge) {
		t.Fatalf("oversized load slice: %v, want a refusal", err)
	}
	if n, _ := c.ContentFingerprint(); n != 0 {
		t.Fatalf("refused writes stored %d docs", n)
	}
	// The batch ID did not enter the dedup window: a smaller batch
	// under the same ID still applies, and survives a reopen.
	if applied, dup, err := c.InsertBatchRaw("big", raw[:2]); err != nil || dup || applied != 2 {
		t.Fatalf("retry after refusal: applied=%d dup=%v err=%v", applied, dup, err)
	}
	wantDocs, wantSum := c.ContentFingerprint()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	r := openDurable(t, durOpts(dir, nil))
	defer r.Close()
	if docs, sum := r.ContentFingerprint(); docs != wantDocs || sum != wantSum {
		t.Fatalf("reopen holds (%d, %016x), want (%d, %016x)", docs, sum, wantDocs, wantSum)
	}

	mem := shardedCluster(t, smallOpts())
	if applied, _, err := mem.InsertBatchRaw("big", raw); err != nil || applied != len(raw) {
		t.Fatalf("in-memory batch: applied=%d err=%v", applied, err)
	}
}

// TestIngesterCancelDuringSplitPressure: cancellation racing a
// balance (splits + migrations hold the cluster write lock) must
// neither deadlock nor leak. leakcheck is the assertion.
func TestIngesterCancelDuringSplitPressure(t *testing.T) {
	leakcheck.Check(t)
	opts := smallOpts()
	opts.ChunkMaxBytes = 4 << 10 // split eagerly
	c := shardedCluster(t, opts)
	in := NewIngester(c)
	defer in.Close()

	stop := make(chan struct{})
	balanced := make(chan struct{})
	go func() { // continuous balance pressure
		defer close(balanced)
		for {
			select {
			case <-stop:
				return
			default:
				c.Balance()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < 20; b++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(b%3)*time.Millisecond)
				_, _, err := insertDocs(ctx, in, fmt.Sprintf("s%d/%d", w, b), ingestDocs(int64(500+w*20+b), 16))
				cancel()
				if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
					t.Errorf("s%d/%d: %v", w, b, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-balanced
}
