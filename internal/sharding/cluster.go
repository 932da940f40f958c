package sharding

import (
	"bytes"
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/bson"
	"repro/internal/collection"
	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/sketch"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Chunk is a contiguous range [Min, Max) of the encoded shard-key
// tuple space, owned by one shard.
type Chunk struct {
	Min   []byte
	Max   []byte
	Shard int
	Docs  int
	Bytes int64

	// sum is the chunk's coarse-cell sketch (nil when summaries are
	// disabled); sumExact reports that it covers every document in the
	// chunk — only then may the router prune on it. See summary.go.
	sum      *sketch.Summary
	sumExact bool
}

// Contains reports whether the tuple falls in the chunk.
func (ch *Chunk) Contains(tuple []byte) bool {
	return bytes.Compare(ch.Min, tuple) <= 0 && bytes.Compare(tuple, ch.Max) < 0
}

// Shard is one data-bearing node of the cluster.
type Shard struct {
	ID   int
	Name string
	Coll *collection.Collection
}

// Options configures a cluster.
type Options struct {
	// Shards is the number of data-bearing nodes (default 12, the
	// paper's deployment).
	Shards int
	// ChunkMaxBytes is the split threshold (the paper's clusters use
	// the 64 MB server default; the simulator default is 256 KiB so
	// that scaled-down data sets still produce realistic chunk
	// counts).
	ChunkMaxBytes int64
	// AutoBalanceEvery runs the balancer after this many inserts,
	// emulating the background balancer that spreads chunks during
	// loading. 0 means the default; negative disables.
	AutoBalanceEvery int
	// CollectionName is the sharded collection's name (default
	// "traces").
	CollectionName string
	// QueryConfig tunes per-shard planning and execution.
	QueryConfig *query.Config
	// Parallel is the scatter-gather worker-pool width: how many
	// per-shard executions of one routed query (or one batch) may run
	// concurrently. 0 means GOMAXPROCS — in the paper's deployment
	// every shard is a dedicated machine, so real fan-out is the
	// faithful execution model. 1 reproduces the historical sequential
	// behaviour exactly; the paper-metric counters (keys/docs examined,
	// nodes, result counts, the modelled max-duration) are
	// order-independent and identical at every pool width.
	Parallel int
	// Resilience configures the router's fault handling: the
	// FailFast/AllowPartial policy and the per-shard attempt deadline.
	// The zero value fails fast with no deadline; retries and circuit
	// breakers always run with fixed tuning (resilience.go).
	Resilience Resilience
	// Conn is the per-shard execution boundary; nil means LocalConn
	// (the in-process call). Tests and benchmarks install a FaultConn
	// here to inject shard-level failures.
	Conn ShardConn
	// Dir, when non-empty, makes the cluster durable: every write is
	// framed into a write-ahead journal under this directory and
	// Checkpoint() snapshots the full state there. Durable clusters
	// are opened with OpenCluster (which also performs crash
	// recovery); NewCluster ignores Dir.
	Dir string
	// FS overrides the file system under Dir — the seam the
	// fault-injection tests use (wal.FaultFS). nil means the real
	// file system rooted at Dir.
	FS wal.FS
	// Sync is the journal fsync policy (default wal.SyncBatch, group
	// commit at wal.DefaultBatchBytes).
	Sync wal.SyncPolicy
	// SummaryShift enables per-chunk coarse-cell sketches when > 0:
	// each document's leading shard-key value (which must be a
	// non-negative integer, e.g. a Hilbert d-value) is right-shifted by
	// this many bits to its summary cell, and the router prunes shards
	// whose chunks provably hold no cell of a query's range. 0 (the
	// default) disables the layer entirely. See summary.go.
	SummaryShift int
	// ResultCacheBytes bounds the router's epoch-invalidated result
	// cache; 0 (the default) disables it. See resultcache.go.
	ResultCacheBytes int64
}

// Defaults for Options.
const (
	DefaultShards           = 12
	DefaultChunkMaxBytes    = 256 << 10
	DefaultAutoBalanceEvery = 2048
	DefaultCollectionName   = "traces"
)

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = DefaultShards
	}
	if o.ChunkMaxBytes <= 0 {
		o.ChunkMaxBytes = DefaultChunkMaxBytes
	}
	if o.AutoBalanceEvery == 0 {
		o.AutoBalanceEvery = DefaultAutoBalanceEvery
	}
	if o.CollectionName == "" {
		o.CollectionName = DefaultCollectionName
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	if o.Conn == nil {
		o.Conn = LocalConn{}
	}
	return o
}

// ShardKeyIndexName is the name of the index the cluster creates on
// the shard key of a sharded collection, mirroring the server's
// automatic shard-key index (Section 4.1.2 / 4.2.2 of the paper: this
// is where bsl gets its extra date index and hil gets its compound
// spatio-temporal index "for free").
const ShardKeyIndexName = "shardkey"

// Cluster simulates a sharded deployment: shards, chunk metadata,
// balancer and zones. The query router lives in router.go.
type Cluster struct {
	mu     sync.RWMutex
	opts   Options
	shards []*Shard

	sharded bool
	key     ShardKey
	chunks  []*Chunk // sorted by Min
	zones   []Zone   // sorted by Min; may be empty

	sinceBalance int
	splits       int
	migrations   int
	jumbo        int

	// conn is the per-shard execution boundary (Options.Conn,
	// defaulted to LocalConn) and breakers the per-shard circuit
	// breakers, indexed by shard id.
	conn     ShardConn
	breakers []*breaker

	// dur is the journaling state of a durable cluster (see
	// durability.go); nil for in-memory clusters.
	dur *durability

	// dedup is the bounded window of recently applied ingest batch
	// IDs (see ingest.go); always non-nil.
	dedup *dedupWindow

	// epochs are the per-shard content epochs, indexed by shard id:
	// every operation that can change what a shard's queries return
	// (insert, delete, split, migration)
	// bumps the owning shards' entries under the write lock. The result
	// cache validates hits against them; queries read them under the
	// read lock, so they are stable for the whole scatter-gather.
	epochs []uint64

	// rcache is the epoch-invalidated result cache (nil when
	// Options.ResultCacheBytes is 0). See resultcache.go.
	rcache *resultCache

	// fpDocs and fpSum are the content fingerprint (ContentFingerprint):
	// insertRawLocked adds each stored document's docChecksum,
	// removeLocked subtracts it, a migration changes neither, and a
	// snapshot restore sums the restored records once.
	fpDocs int
	fpSum  uint64
}

// NewCluster creates the shards.
func NewCluster(opts Options) *Cluster {
	opts = opts.withDefaults()
	c := &Cluster{opts: opts, conn: opts.Conn, dedup: newDedupWindow(dedupWindowSize)}
	c.epochs = make([]uint64, opts.Shards)
	if opts.ResultCacheBytes > 0 {
		c.rcache = newResultCache(opts.ResultCacheBytes)
	}
	for i := 0; i < opts.Shards; i++ {
		c.shards = append(c.shards, &Shard{
			ID:   i,
			Name: fmt.Sprintf("shard%02d", i),
			Coll: collection.New(opts.CollectionName),
		})
		c.breakers = append(c.breakers, newBreaker())
	}
	return c
}

// SetConn swaps the per-shard execution boundary (nil restores the
// in-process LocalConn). Tests and the fault-injection benchmarks
// install a FaultConn here on a loaded cluster.
func (c *Cluster) SetConn(conn ShardConn) {
	if conn == nil {
		conn = LocalConn{}
	}
	c.mu.Lock()
	c.conn = conn
	c.opts.Conn = conn
	// A new execution boundary may answer from different state (remote
	// processes, fault programs): flush the result cache wholesale.
	for i := range c.epochs {
		c.epochs[i]++
	}
	c.mu.Unlock()
}

// SetResilience replaces the fault-handling configuration and resets
// every shard's circuit breaker.
func (c *Cluster) SetResilience(r Resilience) {
	c.mu.Lock()
	c.opts.Resilience = r
	for i := range c.breakers {
		c.breakers[i] = newBreaker()
	}
	c.mu.Unlock()
}

// BreakerStates reports each shard's circuit-breaker state
// ("closed", "open" or "half-open"), keyed by shard id —
// observability for the CLIs. The map is a fresh defensive copy:
// callers may mutate or retain it while queries keep running.
func (c *Cluster) BreakerStates() map[int]string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[int]string, len(c.breakers))
	for i, b := range c.breakers {
		out[i] = b.snapshotState()
	}
	return out
}

// Shards returns a copy of the cluster's shard list — callers may
// sort or truncate it without aliasing router state. The *Shard
// entries themselves are live (their collections serve queries).
func (c *Cluster) Shards() []*Shard {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*Shard(nil), c.shards...)
}

// PlanCacheStats sums the cumulative plan-cache hit/miss counters
// across every shard collection.
func (c *Cluster) PlanCacheStats() (hits, misses int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, sh := range c.shards {
		hits += sh.Coll.PlanCacheHits.Load()
		misses += sh.Coll.PlanCacheMisses.Load()
	}
	return hits, misses
}

// Options returns the effective options.
func (c *Cluster) Options() Options {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.opts
}

// SetParallel changes the scatter-gather pool width (0 restores the
// GOMAXPROCS default, 1 forces sequential execution). Benchmarks use
// it to compare pool widths on one loaded cluster without reloading.
func (c *Cluster) SetParallel(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	c.mu.Lock()
	c.opts.Parallel = n
	c.mu.Unlock()
}

// ShardCollection enables sharding with the given key: one initial
// chunk covering the whole key space on shard 0, plus the automatic
// shard-key index on every shard.
func (c *Cluster) ShardCollection(key ShardKey) error {
	if err := key.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sharded {
		return fmt.Errorf("sharding: collection already sharded")
	}
	fields := make([]index.Field, len(key.Fields))
	for i, f := range key.Fields {
		fields[i] = index.Field{Name: f, Kind: index.Ascending}
	}
	def := index.Definition{Name: ShardKeyIndexName, Fields: fields}
	for _, s := range c.shards {
		if _, err := s.Coll.CreateIndex(def); err != nil {
			return err
		}
	}
	c.key = key
	c.chunks = []*Chunk{{Min: key.MinTuple(), Max: key.MaxTuple(), Shard: 0}}
	c.sharded = true
	return c.journalCommit(opShardCollection, encodeShardKey(key))
}

// ShardKeyOf returns the shard key; ok is false when the collection
// is unsharded.
func (c *Cluster) ShardKeyOf() (ShardKey, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.key, c.sharded
}

// CreateIndex creates a secondary index on every shard.
func (c *Cluster) CreateIndex(def index.Definition) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.shards {
		if _, err := s.Coll.CreateIndex(def); err != nil {
			return err
		}
	}
	return c.journalCommit(opCreateIndex, encodeIndexDef(def))
}

// Insert encodes the document and routes it to the chunk owning its
// shard-key tuple, splitting the chunk when it exceeds the size
// threshold and periodically running the balancer: a batch of one with
// no batch id (see InsertBatchRaw).
func (c *Cluster) Insert(doc *bson.Document) error {
	_, _, err := c.InsertBatchRaw("", [][]byte{bson.Marshal(doc)})
	return err
}

// tupleBuf is the stack buffer shard-key tuples are derived in: routing
// only compares a tuple against chunk bounds, so deriving one allocates
// nothing. The store's tuples are 9-20 bytes; longer ones spill.
type tupleBuf [48]byte

// insertRawLocked routes and stores one encoded document, maintaining
// chunk statistics, splits and the auto-balance cadence. Everything it
// needs — the shard-key tuple, the index keys, the sketch cell, the
// size — is read from the bytes; the owning shard's store keeps the
// slice itself. It neither journals nor commits — commitIngest
// (ingest.go) does that once per write operation.
func (c *Cluster) insertRawLocked(raw []byte) error {
	if !c.sharded {
		if _, err := c.shards[0].Coll.InsertRaw(raw); err != nil {
			return err
		}
		c.fpDocs++
		c.fpSum += docChecksum(raw)
		c.bumpEpochLocked(0)
		return nil
	}
	var buf tupleBuf
	ci := c.findChunk(c.key.AppendTupleRaw(buf[:0], raw))
	if ci < 0 {
		return fmt.Errorf("sharding: no chunk for tuple (shard key %s)", c.key)
	}
	ch := c.chunks[ci]
	if _, err := c.shards[ch.Shard].Coll.InsertRaw(raw); err != nil {
		return err
	}
	c.fpDocs++
	c.fpSum += docChecksum(raw)
	ch.Docs++
	ch.Bytes += int64(len(raw))
	c.bumpEpochLocked(ch.Shard)
	c.summaryAddLocked(ch, raw)
	if ch.Bytes > c.opts.ChunkMaxBytes {
		c.splitChunkLocked(ci)
	}
	if c.opts.AutoBalanceEvery > 0 {
		c.sinceBalance++
		if c.sinceBalance >= c.opts.AutoBalanceEvery {
			c.sinceBalance = 0
			c.balanceLocked()
		}
	}
	return nil
}

// findChunk returns the index of the chunk containing the tuple, or
// -1. Chunks tile the key space, so a valid tuple always lands.
func (c *Cluster) findChunk(tuple []byte) int {
	// First chunk whose Max > tuple.
	i := sort.Search(len(c.chunks), func(i int) bool {
		return bytes.Compare(c.chunks[i].Max, tuple) > 0
	})
	if i < len(c.chunks) && c.chunks[i].Contains(tuple) {
		return i
	}
	return -1
}

// chunkInterval is the chunk's range of the shard-key index.
func chunkInterval(ch *Chunk) index.Interval {
	return index.Interval{Low: boundInclude(ch.Min), High: boundExclude(ch.Max)}
}

// chunkTuples returns a visitor over the shard-key tuples of the
// chunk's documents in sorted order. The slices it hands out are
// borrowed and stay valid until the owning shard is next written. A
// range-sharded chunk is one interval of the shard-key index, whose
// entries start with the tuple, so each visit is an index walk that
// allocates nothing; a hashed collection's index holds raw values, not
// hashes, so there the tuples are derived once, here, from the stored
// bytes of every document on the shard.
func (c *Cluster) chunkTuples(ch *Chunk) func(visit func(tuple []byte) bool) {
	coll := c.shards[ch.Shard].Coll
	if c.key.Strategy == RangeSharding {
		ix := coll.Index(ShardKeyIndexName)
		return func(visit func(tuple []byte) bool) {
			ix.ScanInterval(chunkInterval(ch), func(key []byte, _ storage.RecordID) bool {
				return visit(index.KeyPrefix(key))
			})
		}
	}
	var tuples [][]byte
	coll.Store().Walk(func(_ storage.RecordID, raw []byte) bool {
		if t := c.key.AppendTupleRaw(nil, raw); ch.Contains(t) {
			tuples = append(tuples, t)
		}
		return true
	})
	slices.SortFunc(tuples, bytes.Compare)
	return func(visit func(tuple []byte) bool) {
		for _, t := range tuples {
			if !visit(t) {
				return
			}
		}
	}
}

// chunkRecords returns the record ids of the chunk's documents on its
// owning shard.
func (c *Cluster) chunkRecords(ch *Chunk) []storage.RecordID {
	coll := c.shards[ch.Shard].Coll
	var ids []storage.RecordID
	if c.key.Strategy == RangeSharding {
		ids = make([]storage.RecordID, 0, max(ch.Docs, 0))
		coll.Index(ShardKeyIndexName).ScanInterval(chunkInterval(ch), func(_ []byte, id storage.RecordID) bool {
			ids = append(ids, id)
			return true
		})
		return ids
	}
	coll.Store().Walk(func(id storage.RecordID, raw []byte) bool {
		var buf tupleBuf
		if ch.Contains(c.key.AppendTupleRaw(buf[:0], raw)) {
			ids = append(ids, id)
		}
		return true
	})
	return ids
}

// splitPoint picks where a chunk holding n documents splits: the
// median tuple — or, when the median equals the lowest tuple, the
// first tuple above it, so both halves are non-empty — and how many
// documents sort below it. each visits the chunk's tuples in sorted
// order with borrowed slices that stay valid for the whole visit (the
// index is not mutated meanwhile); the chosen tuple is the only one
// copied. ok is false when every document shares one tuple.
func splitPoint(n int, each func(visit func(tuple []byte) bool)) (split []byte, leftDocs int, ok bool) {
	var run []byte // the tuple of the run of equal tuples being visited
	runStart, i := 0, 0
	each(func(tuple []byte) bool {
		if i == 0 || !bytes.Equal(tuple, run) {
			if i > n/2 {
				// The median's run began at the low end; this is the
				// first tuple above it.
				split, leftDocs, ok = bytes.Clone(tuple), i, true
				return false
			}
			run, runStart = tuple, i
		}
		if i == n/2 && runStart > 0 {
			split, leftDocs, ok = bytes.Clone(tuple), runStart, true
			return false
		}
		i++
		return true
	})
	return split, leftDocs, ok
}

// splitChunkLocked splits chunk ci at the median shard-key value. A
// chunk whose documents all share one tuple cannot be split — the
// "jumbo" case the paper discusses for skewed Hilbert values (the
// compound (hilbertIndex, date) key avoids it because dates have high
// cardinality). It takes two passes over the chunk's tuples — count,
// then walk to the median.
func (c *Cluster) splitChunkLocked(ci int) {
	ch := c.chunks[ci]
	each := c.chunkTuples(ch)
	n := 0
	each(func([]byte) bool {
		n++
		return true
	})
	if n < 2 {
		return
	}
	split, leftDocs, ok := splitPoint(n, each)
	if !ok {
		c.jumbo++
		return
	}
	perDoc := ch.Bytes / int64(max(ch.Docs, 1))
	right := &Chunk{
		Min:   split,
		Max:   ch.Max,
		Shard: ch.Shard,
		Docs:  n - leftDocs,
		Bytes: perDoc * int64(n-leftDocs),
	}
	ch.Max = split
	ch.Docs = leftDocs
	ch.Bytes = perDoc * int64(leftDocs)
	c.chunks = append(c.chunks, nil)
	copy(c.chunks[ci+2:], c.chunks[ci+1:])
	c.chunks[ci+1] = right
	c.splits++
	// Both halves rebuild their sketches from the data: the parent's
	// sketch cannot be divided. The shard's content did not change, but
	// its chunk map did — bump the epoch so cached routes re-validate.
	c.bumpEpochLocked(ch.Shard)
	c.rebuildChunkSummaryLocked(ch)
	c.rebuildChunkSummaryLocked(right)
}

// Delete removes every document matching the filter, keeping the
// chunk metadata accurate, and returns the number deleted. Each removed
// document is one opDelete journal record; the write lock is held
// throughout, so deletes never interleave with splits, migrations or
// queries.
func (c *Cluster) Delete(f query.Filter) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	deleted, err := c.deleteMatchingLocked(f)
	return deleted, c.finishWriteLocked(err)
}

func (c *Cluster) deleteMatchingLocked(f query.Filter) (int, error) {
	deleted := 0
	for i, s := range c.shards {
		for _, id := range query.MatchingRecords(s.Coll, f, c.opts.QueryConfig) {
			if err := c.deleteRecordLocked(i, id); err != nil {
				return deleted, err
			}
			deleted++
		}
	}
	return deleted, nil
}

// deleteRecordLocked removes one record from its shard and journals the
// delete — Cluster.Delete's unit of work, and what replaying an opDelete
// record re-executes (the journal is detached then).
func (c *Cluster) deleteRecordLocked(shard int, id storage.RecordID) error {
	if shard < 0 || shard >= len(c.shards) {
		return fmt.Errorf("sharding: delete names unknown shard %d", shard)
	}
	if err := c.removeLocked(c.shards[shard].Coll, id); err != nil {
		return err
	}
	c.journal(opDelete, encodeDelete(shard, id))
	return nil
}

// removeLocked deletes one record from a shard's collection and keeps
// the chunk metadata and the content fingerprint accurate. It is the
// one body that drops a document (Delete and its journal replay).
func (c *Cluster) removeLocked(coll *collection.Collection, id storage.RecordID) error {
	raw, _ := coll.Store().FetchRaw(id) // a missing record fails the Delete below
	if err := coll.Delete(id); err != nil {
		return err
	}
	c.fpDocs--
	c.fpSum -= docChecksum(raw)
	if !c.sharded {
		c.bumpEpochLocked(0)
		return nil
	}
	var buf tupleBuf
	if ci := c.findChunk(c.key.AppendTupleRaw(buf[:0], raw)); ci >= 0 {
		ch := c.chunks[ci]
		ch.Docs--
		ch.Bytes -= int64(len(raw))
		if ch.Bytes < 0 {
			ch.Bytes = 0
		}
		c.bumpEpochLocked(ch.Shard)
		c.summaryRemoveLocked(ch, raw)
	}
	return nil
}

// bumpEpochLocked advances one shard's content epoch, invalidating
// every cached result that was computed against it.
func (c *Cluster) bumpEpochLocked(sid int) {
	if sid >= 0 && sid < len(c.epochs) {
		c.epochs[sid]++
	}
}

// epochsOfLocked appends the content epochs of the given shard ids to
// dst, in order. The caller holds at least the read lock.
func (c *Cluster) epochsOfLocked(dst []uint64, sids []int) []uint64 {
	for _, sid := range sids {
		var e uint64
		if sid >= 0 && sid < len(c.epochs) {
			e = c.epochs[sid]
		}
		dst = append(dst, e)
	}
	return dst
}

// ShardEpochs returns a snapshot of every shard's content epoch —
// observability for tests and CLIs.
func (c *Cluster) ShardEpochs() []uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]uint64(nil), c.epochs...)
}

// EnableResultCache installs (maxBytes > 0) or removes (<= 0) the
// router's epoch-invalidated result cache.
func (c *Cluster) EnableResultCache(maxBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.opts.ResultCacheBytes = maxBytes
	if maxBytes > 0 {
		c.rcache = newResultCache(maxBytes)
	} else {
		c.rcache = nil
	}
}

// ResultCacheStats returns the cache's cumulative hit/miss counters
// (zeros when the cache is disabled).
func (c *Cluster) ResultCacheStats() (hits, misses int64) {
	c.mu.RLock()
	rc := c.rcache
	c.mu.RUnlock()
	if rc == nil {
		return 0, 0
	}
	return rc.stats()
}

// Balance runs the balancer until the chunk counts are even (or no
// legal move remains): repeatedly move a chunk from the
// most-chunk-loaded shard to the least-loaded shard that may accept
// it (zones constrain the legal destinations).
func (c *Cluster) Balance() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.balanceLocked()
	// One journal record re-derives the whole run during replay; the
	// individual migrations are not journaled.
	_ = c.journalCommit(opBalance, nil)
}

func (c *Cluster) balanceLocked() {
	if !c.sharded {
		return
	}
	for moved := true; moved; {
		moved = false
		counts := c.chunkCountsLocked()
		// Consider donors from most to least loaded.
		order := make([]int, len(c.shards))
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(counts[b], counts[a]) })
		for _, donor := range order {
			if counts[donor] == 0 {
				break
			}
			// Move the donor's lowest-range movable chunk. For a
			// monotonically increasing shard key (date), inserts hit
			// the top chunk, so the donor sheds its oldest ranges in
			// contiguous runs — the real balancer's behaviour, and the
			// reason the paper's short-window queries touch few nodes.
			for ci := 0; ci < len(c.chunks); ci++ {
				ch := c.chunks[ci]
				if ch.Shard != donor {
					continue
				}
				recipient := c.bestRecipientLocked(ch, counts)
				if recipient < 0 || counts[donor]-counts[recipient] <= 1 {
					continue
				}
				c.moveChunkLocked(ch, recipient)
				moved = true
				break
			}
			if moved {
				break
			}
		}
	}
}

// bestRecipientLocked returns the allowed shard with the fewest
// chunks, or -1.
func (c *Cluster) bestRecipientLocked(ch *Chunk, counts []int) int {
	zoneShard := c.zoneShardFor(ch)
	if zoneShard >= 0 {
		if zoneShard == ch.Shard {
			return -1
		}
		return zoneShard
	}
	best := -1
	for i := range c.shards {
		if i == ch.Shard {
			continue
		}
		// A chunk outside every zone must not move onto a shard in a
		// way that violates zone homing; any shard is fine in this
		// simulator.
		if best < 0 || counts[i] < counts[best] {
			best = i
		}
	}
	return best
}

// moveChunkLocked migrates the chunk's documents — stored bytes in,
// stored bytes out, index keys read from them on both sides — and
// reassigns ownership. Nothing is journaled: replay re-derives
// migrations from the balance, zone and insert records that caused them.
func (c *Cluster) moveChunkLocked(ch *Chunk, to int) {
	from := ch.Shard
	if from == to {
		return
	}
	ids := c.chunkRecords(ch)
	src, dst := c.shards[from].Coll, c.shards[to].Coll
	for _, id := range ids {
		raw, ok := src.Store().FetchRaw(id)
		if !ok {
			continue
		}
		// The recipient gets its own copy: ids arrive in shard-key
		// order, so a moved chunk's records are allocated together in
		// key order, which is where range scans then find them (almost
		// every chunk is moved once by the balancer). Handing over the
		// source's slice would keep records where their first insert
		// scattered them.
		if _, err := dst.InsertRaw(bytes.Clone(raw)); err != nil {
			continue
		}
		_ = src.Delete(id)
	}
	ch.Shard = to
	c.migrations++
	// The sketch moves with the chunk (content unchanged — that is the
	// point of per-chunk granularity); both shards' contents changed.
	c.bumpEpochLocked(from)
	c.bumpEpochLocked(to)
}

func (c *Cluster) chunkCountsLocked() []int {
	counts := make([]int, len(c.shards))
	for _, ch := range c.chunks {
		counts[ch.Shard]++
	}
	return counts
}

// Chunks returns a snapshot of the chunk metadata.
func (c *Cluster) Chunks() []Chunk {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Chunk, len(c.chunks))
	for i, ch := range c.chunks {
		out[i] = *ch
		// The sketch stays with the live chunk: a snapshot must not
		// alias a structure the write path keeps mutating.
		out[i].sum = nil
		out[i].sumExact = false
	}
	return out
}

// Stats summarises cluster state.
type Stats struct {
	Shards     int
	Chunks     int
	Docs       int
	DataBytes  int64
	IndexBytes int64
	Splits     int
	Migrations int
	Jumbo      int
	// PerShard is indexed by shard id.
	PerShard []ShardStats
}

// CompressedDataBytes estimates the block-compressed size of the
// whole sharded collection (computed on demand — it runs the
// compressor over a sample of every shard).
func (c *Cluster) CompressedDataBytes() int64 {
	var total int64
	for _, s := range c.shards {
		total += s.Coll.CompressedDataBytes()
	}
	return total
}

// ShardStats summarises one shard.
type ShardStats struct {
	Docs       int
	Chunks     int
	DataBytes  int64
	IndexBytes int64
}

// ClusterStats computes the current Stats.
func (c *Cluster) ClusterStats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := Stats{
		Shards:     len(c.shards),
		Chunks:     len(c.chunks),
		Splits:     c.splits,
		Migrations: c.migrations,
		Jumbo:      c.jumbo,
		PerShard:   make([]ShardStats, len(c.shards)),
	}
	for i, s := range c.shards {
		ss := ShardStats{
			Docs:       s.Coll.Len(),
			DataBytes:  s.Coll.DataBytes(),
			IndexBytes: s.Coll.IndexBytes(),
		}
		st.PerShard[i] = ss
		st.Docs += ss.Docs
		st.DataBytes += ss.DataBytes
		st.IndexBytes += ss.IndexBytes
	}
	for _, ch := range c.chunks {
		st.PerShard[ch.Shard].Chunks++
	}
	return st
}
