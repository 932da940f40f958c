package sharding

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/keyenc"
	"repro/internal/query"
	"repro/internal/sfc"
	"repro/internal/wire"
)

// hilbertCells is cellRange of unsigned ends.
func hilbertCells(lo, hi uint64) query.Filter {
	return cellSpec(sfc.Range{Lo: lo, Hi: hi})
}

// TestAggregatePushdownDifferential: every aggregate kind, computed by
// per-shard pushdown and merged by the router, must equal the
// router-side aggregate over the shipped documents of the same query —
// the document-shipping baseline the pushdown replaces.
func TestAggregatePushdownDifferential(t *testing.T) {
	c, _ := loadCluster(t, 3000, hilbertDateKey(), smallOpts())
	filters := []query.Filter{
		cellRange(0, 4096),
		cellRange(100, 900),
		cellRange(4000, 4095),
		cellRange(int64(7), int64(7)),
	}
	specs := []query.AggSpec{
		{Kind: query.AggCount},
		{Kind: query.AggDistinct, Field: "hilbertIndex"},
		{Kind: query.AggCellHist, Field: "hilbertIndex", Shift: 4},
	}
	for fi, f := range filters {
		shipped := c.Query(f)
		if shipped.Err != nil {
			t.Fatal(shipped.Err)
		}
		for _, spec := range specs {
			want := query.AggregateDocs(shipped.Docs, spec)
			res := c.QueryOpts(f, query.Opts{Agg: spec})
			if res.Err != nil {
				t.Fatalf("filter %d spec %s: %v", fi, spec.Kind, res.Err)
			}
			if len(res.Docs) != 0 {
				t.Fatalf("filter %d spec %s: aggregate shipped %d docs", fi, spec.Kind, len(res.Docs))
			}
			if !res.Agg.Equal(want) {
				t.Fatalf("filter %d spec %s: pushdown %+v != baseline %+v", fi, spec.Kind, res.Agg, want)
			}
			// Canonical bytes must agree too — the digest differential
			// in cluster-smoke rests on this.
			if !bytes.Equal(wire.AppendAggResult(nil, res.Agg), wire.AppendAggResult(nil, want)) {
				t.Fatalf("filter %d spec %s: canonical bytes differ", fi, spec.Kind)
			}
		}
	}
}

// TestAggregateDistinctSecondField exercises distinct over a non-key
// field so the value path (keyenc-normalised dates) is covered.
func TestAggregateDistinctSecondField(t *testing.T) {
	c, _ := loadCluster(t, 1200, hilbertDateKey(), smallOpts())
	f := cellRange(0, 2048)
	shipped := c.Query(f)
	spec := query.AggSpec{Kind: query.AggDistinct, Field: "date"}
	want := query.AggregateDocs(shipped.Docs, spec)
	got := c.QueryOpts(f, query.Opts{Agg: spec})
	if !got.Agg.Equal(want) {
		t.Fatalf("distinct(date): %d values vs %d", len(got.Agg.Distinct), len(want.Distinct))
	}
	if got.Agg.Count != int64(len(shipped.Docs)) {
		t.Fatalf("count %d, shipped %d docs", got.Agg.Count, len(shipped.Docs))
	}
}

// twoHilbertClusters builds a cluster sharded on {hilbertIndex, date}
// over two well-separated hilbert clusters of 2 000 documents each —
// hilbertIndex in [0, 256) and [100000, 100256), cells 0..15 and
// 6250..6265 at shift 4 — and balances it, so its chunks spread over
// the shards and one of them spans the gap between the clusters.
func twoHilbertClusters(t *testing.T, opts Options) *Cluster {
	t.Helper()
	c := NewCluster(opts)
	if err := c.ShardCollection(hilbertDateKey()); err != nil {
		t.Fatal(err)
	}
	gen := bson.NewObjectIDGen(1)
	rng := rand.New(rand.NewSource(11))
	insert := func(hv int64) {
		p := geo.Point{Lon: 23 + rng.Float64(), Lat: 37 + rng.Float64()}
		at := baseTime.Add(time.Duration(rng.Int63n(int64(24 * time.Hour))))
		if err := c.Insert(stDoc(gen, p, at, hv)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		insert(int64(rng.Intn(256))) // low cluster
	}
	for i := 0; i < 2000; i++ {
		insert(int64(100000 + rng.Intn(256))) // high cluster
	}
	c.Balance()
	return c
}

// TestCellPruningSkipsEmptyShards queries a hole between two hilbert
// clusters: range routing alone targets shards (chunk ranges tile the
// whole key space), the chunks' cells prove them empty.
func TestCellPruningSkipsEmptyShards(t *testing.T) {
	opts := smallOpts()
	opts.SummaryShift = 4
	c := twoHilbertClusters(t, opts)

	// The hole: overlaps chunks spanning the gap, holds no documents.
	hole := hilbertCells(50000, 50100)
	res := c.Query(hole)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Docs) != 0 {
		t.Fatalf("hole query returned %d docs", len(res.Docs))
	}
	if res.ShardsTargeted+res.ShardsPruned == 0 {
		t.Fatal("hole query overlapped no chunks at all — test data does not exercise pruning")
	}
	if res.ShardsPruned == 0 {
		t.Fatalf("no shards pruned (targeted %d) — cells not consulted", res.ShardsTargeted)
	}

	// Differential: pruning must never change any answer. Compare
	// against the same cluster with summaries disabled.
	ref := twoHilbertClusters(t, smallOpts())
	for _, f := range []query.Filter{
		hole,
		hilbertCells(0, 64),
		hilbertCells(200, 100050),
		hilbertCells(99990, 100300),
	} {
		a, b := c.Query(f), ref.Query(f)
		if a.Err != nil || b.Err != nil {
			t.Fatal(a.Err, b.Err)
		}
		if len(a.Docs) != len(b.Docs) {
			t.Fatalf("filter %s: pruned cluster returned %d docs, reference %d",
				f, len(a.Docs), len(b.Docs))
		}
	}
}

// TestWideEmptyCoverIsPruned: a range spanning thousands of empty
// coarse cells inside the chunks around the gap between two hilbert
// clusters is pruned on every shard — the cells are proved empty with
// one binary search per chunk, however many the range spans.
func TestWideEmptyCoverIsPruned(t *testing.T) {
	opts := smallOpts()
	opts.SummaryShift = 4
	c := twoHilbertClusters(t, opts)
	f := hilbertCells(300, 90000) // cells 18..5625, none occupied
	res := c.Query(f)
	if res.Err != nil || len(res.Docs) != 0 {
		t.Fatalf("the gap returned %d docs, err %v", len(res.Docs), res.Err)
	}
	if res.ShardsPruned == 0 || res.ShardsTargeted != 0 {
		t.Fatalf("the gap targeted %v and pruned %d shards, want none targeted and some pruned",
			res.TargetedShards, res.ShardsPruned)
	}
}

// TestResultCacheHitIsByteIdenticalAndEpochInvalidated interleaves
// ingest batches and the splits they drive with cached queries —
// document and aggregate — and checks that every warm answer is
// byte-identical to a cold execution of the same query at that moment
// (zero stale hits).
func TestResultCacheHitIsByteIdenticalAndEpochInvalidated(t *testing.T) {
	opts := smallOpts()
	opts.SummaryShift = 4
	opts.ResultCacheBytes = 32 << 20
	c := NewCluster(opts)
	if err := c.ShardCollection(hilbertDateKey()); err != nil {
		t.Fatal(err)
	}
	cold := NewCluster(smallOpts()) // no cache: the oracle
	if err := cold.ShardCollection(hilbertDateKey()); err != nil {
		t.Fatal(err)
	}

	gen := bson.NewObjectIDGen(1)
	rng := rand.New(rand.NewSource(23))
	batch := func(n int) []*bson.Document {
		docs := make([]*bson.Document, 0, n)
		for i := 0; i < n; i++ {
			p := geo.Point{Lon: 23 + rng.Float64(), Lat: 37 + rng.Float64()}
			at := baseTime.Add(time.Duration(rng.Int63n(int64(24 * time.Hour))))
			docs = append(docs, stDoc(gen, p, at, int64(rng.Intn(4096))))
		}
		return docs
	}

	filters := []query.Filter{
		cellRange(0, 4096),
		cellRange(128, 512),
		cellRange(3000, 3500),
	}
	optsList := []query.Opts{
		{},
		{Agg: query.AggSpec{Kind: query.AggCount}},
		{Agg: query.AggSpec{Kind: query.AggCellHist, Field: "hilbertIndex", Shift: 6}},
	}

	check := func(round int) {
		for fi, f := range filters {
			for oi, qo := range optsList {
				warm := c.QueryOpts(f, qo)
				oracle := cold.QueryOpts(f, qo)
				if warm.Err != nil || oracle.Err != nil {
					t.Fatal(warm.Err, oracle.Err)
				}
				if len(warm.Docs) != len(oracle.Docs) {
					t.Fatalf("round %d f%d o%d (hit=%v): %d docs vs oracle %d",
						round, fi, oi, warm.CacheHit, len(warm.Docs), len(oracle.Docs))
				}
				for i := range warm.Docs {
					if !bytes.Equal(warm.Docs[i], oracle.Docs[i]) {
						t.Fatalf("round %d f%d o%d (hit=%v): doc %d bytes differ",
							round, fi, oi, warm.CacheHit, i)
					}
				}
				if (warm.Agg == nil) != (oracle.Agg == nil) || (warm.Agg != nil && !warm.Agg.Equal(oracle.Agg)) {
					t.Fatalf("round %d f%d o%d (hit=%v): aggregate differs: %+v vs %+v",
						round, fi, oi, warm.CacheHit, warm.Agg, oracle.Agg)
				}
			}
		}
	}

	for round := 0; round < 8; round++ {
		docs := batch(400)
		id := fmt.Sprintf("b%d", round)
		if _, _, err := c.InsertBatch(id, docs); err != nil {
			t.Fatal(err)
		}
		clones := make([]*bson.Document, len(docs))
		for i, d := range docs {
			clones[i] = d.Clone()
		}
		if _, _, err := cold.InsertBatch(id, clones); err != nil {
			t.Fatal(err)
		}
		check(round)
		check(round) // second pass: same data, hits must serve
	}
	hits, misses := c.ResultCacheStats()
	if hits == 0 {
		t.Fatalf("cache never hit (misses %d) — the warm pass is not exercising it", misses)
	}
	t.Logf("result cache: %d hits, %d misses", hits, misses)
}

// TestResultCacheInvalidation pins the epoch rule directly: a hit
// before a write, a miss (and a fresh correct answer) right after.
func TestResultCacheInvalidation(t *testing.T) {
	opts := smallOpts()
	opts.ResultCacheBytes = 16 << 20
	c, _ := loadCluster(t, 500, hilbertDateKey(), opts)
	f := cellRange(0, 4096)

	first := c.Query(f)
	if first.CacheHit {
		t.Fatal("first execution reported a cache hit")
	}
	second := c.Query(f)
	if !second.CacheHit {
		t.Fatal("identical re-execution missed the cache")
	}
	n := len(second.Docs)

	gen := bson.NewObjectIDGen(99)
	if err := c.Insert(stDoc(gen, geo.Point{Lon: 23.5, Lat: 37.5}, baseTime, 42)); err != nil {
		t.Fatal(err)
	}
	third := c.Query(f)
	if third.CacheHit {
		t.Fatal("stale cache hit after insert")
	}
	if len(third.Docs) != n+1 {
		t.Fatalf("post-insert query returned %d docs, want %d", len(third.Docs), n+1)
	}
	if !c.Query(f).CacheHit {
		t.Fatal("refilled entry missed")
	}
}

// TestResultCacheKeyDistinguishesOpts: same filter, different pushdown
// options must never share an entry.
func TestResultCacheKeyDistinguishesOpts(t *testing.T) {
	f := query.Prepare(cellRange(0, 100))
	keys := map[string]bool{}
	for _, o := range []query.Opts{
		{},
		{Limit: 5},
		{OrderBy: "date"},
		{OrderBy: "date", Desc: true},
		{Agg: query.AggSpec{Kind: query.AggCount}},
		{Agg: query.AggSpec{Kind: query.AggDistinct, Field: "date"}},
		{Agg: query.AggSpec{Kind: query.AggCellHist, Field: "hilbertIndex", Shift: 6}},
		{Agg: query.AggSpec{Kind: query.AggCellHist, Field: "hilbertIndex", Shift: 8}},
	} {
		k := resultCacheKey(nil, f, o)
		if keys[string(k)] {
			t.Fatalf("opts %+v: key collides", o)
		}
		keys[string(k)] = true
	}
	// And the same (filter, opts) twice is the same key.
	k1 := resultCacheKey(nil, f, query.Opts{Limit: 5})
	k2 := resultCacheKey(nil, query.Prepare(cellRange(0, 100)), query.Opts{Limit: 5})
	if !bytes.Equal(k1, k2) {
		t.Fatal("identical queries keyed differently")
	}
}

// TestResultCacheKeyStringsAreLengthPrefixed: a document query ordered
// by a 256-byte field name and a count whose (unused) field is 256
// bytes must key apart. With one-byte string lengths their keys were
// the same bytes, and whichever ran second was served the other's
// cached answer.
func TestResultCacheKeyStringsAreLengthPrefixed(t *testing.T) {
	opts := smallOpts()
	opts.ResultCacheBytes = 16 << 20
	c, _ := loadCluster(t, 300, hilbertDateKey(), opts)
	f := cellRange(0, 4096)
	v := strings.Repeat("v", 252)
	docs := c.QueryOpts(f, query.Opts{OrderBy: "\x00\x01\x00\x00" + v})
	count := c.QueryOpts(f, query.Opts{Agg: query.AggSpec{Kind: query.AggCount, Field: v + "\x00\x00\x00\x00"}})
	if docs.Err != nil || count.Err != nil || len(docs.Docs) == 0 {
		t.Fatalf("queries failed: %v, %v, %d docs", docs.Err, count.Err, len(docs.Docs))
	}
	if count.CacheHit || count.Agg == nil || count.Agg.Count != int64(len(docs.Docs)) {
		t.Fatalf("count query answered from the document query's entry: hit=%v agg=%+v docs=%d",
			count.CacheHit, count.Agg, len(count.Docs))
	}
}

// TestResultCacheEviction: a tiny budget evicts LRU entries instead of
// growing without bound.
func TestResultCacheEviction(t *testing.T) {
	rc := newResultCache(resultCacheWays * 600) // ~600 bytes per way
	res := &RoutedResult{TotalReturned: 1, Docs: []bson.Raw{bytes.Repeat([]byte{7}, 128)}}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("key-%d", i)
		rc.put(key, []int{0}, []uint64{1}, res)
	}
	var cached int64
	for i := range rc.shards {
		sh := &rc.shards[i]
		sh.mu.Lock()
		cached += sh.bytes
		if sh.bytes > rc.maxPerShard {
			t.Fatalf("cache way %d over budget: %d > %d", i, sh.bytes, rc.maxPerShard)
		}
		sh.mu.Unlock()
	}
	if cached == 0 {
		t.Fatal("nothing cached at all")
	}
}

// TestExplainReportsPruningAndCache: the explain path surfaces pruned
// shards and the cache probe alongside the per-shard plans.
func TestExplainReportsPruningAndCache(t *testing.T) {
	opts := smallOpts()
	opts.SummaryShift = 4
	opts.ResultCacheBytes = 1 << 20
	c := NewCluster(opts)
	if err := c.ShardCollection(hilbertDateKey()); err != nil {
		t.Fatal(err)
	}
	gen := bson.NewObjectIDGen(1)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 1500; i++ {
		p := geo.Point{Lon: 23 + rng.Float64(), Lat: 37 + rng.Float64()}
		hv := int64(rng.Intn(128))
		if i%2 == 1 {
			hv += 200000
		}
		if err := c.Insert(stDoc(gen, p, baseTime.Add(time.Duration(i)*time.Minute), hv)); err != nil {
			t.Fatal(err)
		}
	}
	c.Balance()
	hole := hilbertCells(100000, 100050)

	targets, exps := c.Explain(hole)
	if len(targets) != len(exps) {
		t.Fatalf("targets %d, explanations %d", len(targets), len(exps))
	}
	prunedSeen := false
	for _, e := range exps {
		if e.Pruned {
			prunedSeen = true
		}
		if e.ResultCacheState != "miss" && e.ResultCacheState != "hit" {
			t.Fatalf("cache state %q, want hit/miss", e.ResultCacheState)
		}
	}
	res := c.Query(hole)
	if res.ShardsPruned > 0 && !prunedSeen {
		t.Fatal("query pruned shards but Explain reported none")
	}

	c.Query(hole) // fill
	_, exps = c.Explain(hole)
	if len(exps) > 0 && exps[0].ResultCacheState != "hit" {
		t.Fatalf("post-fill explain cache state %q, want hit", exps[0].ResultCacheState)
	}
}

// TestAggOverEncodedTupleSpace guards the keyenc assumption the
// distinct path uses: encoded values order like the raw ones.
func TestAggOverEncodedTupleSpace(t *testing.T) {
	a := keyenc.AppendValue(nil, int64(5))
	b := keyenc.AppendValue(nil, int64(6))
	if bytes.Compare(a, b) >= 0 {
		t.Fatal("keyenc does not preserve int64 order")
	}
}
