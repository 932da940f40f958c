package sharding

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/bson"
	"repro/internal/collection"
	"repro/internal/index"
	"repro/internal/query"
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

	// cells are the coarse cells the chunk's documents occupy, sorted,
	// each with its document count (empty when summaries are disabled);
	// sumExact reports that they cover every document in the chunk —
	// only then may the router prune on them. See summary.go.
	cells    []cellCount
	sumExact bool
	// single is the one shard-key tuple every document of the chunk
	// shares, set when a size split found it unsplittable (jumbo): the
	// split is retried only when a document with another tuple arrives.
	single []byte
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
	// SummaryShift enables per-chunk occupied coarse cells when > 0:
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
	chunkMap

	// conn is the per-shard execution boundary (Options.Conn,
	// defaulted to LocalConn) and breakers the per-shard circuit
	// breakers, indexed by shard id.
	conn     ShardConn
	breakers []*breaker

	// dur is the journaling state of a durable cluster (see
	// durability.go); nil for in-memory clusters.
	dur *durability

	// closed is set by Close: every later write is refused with
	// ErrClosed before anything of it is journaled or applied.
	closed bool

	// dedup is the bounded window of recently applied ingest batch
	// IDs (see ingest.go); always non-nil.
	dedup *dedupWindow

	// epochs are the per-shard content epochs, indexed by shard id:
	// every operation that can change what a shard's queries return
	// (insert, split, migration) bumps the owning shards' entries under
	// the write lock. The result cache validates hits against them;
	// queries read them under the read lock, so they are stable for the
	// whole scatter-gather.
	epochs []uint64

	// rcache is the epoch-invalidated result cache (nil when
	// Options.ResultCacheBytes is 0). See resultcache.go.
	rcache *resultCache

	// fpDocs and fpSum are the content fingerprint (ContentFingerprint):
	// insertRawLocked adds each stored document's docChecksum, a
	// migration changes neither, and a snapshot restore sums the
	// restored records once.
	fpDocs int
	fpSum  uint64
}

// NewCluster creates the shards.
func NewCluster(opts Options) *Cluster {
	opts = opts.withDefaults()
	c := &Cluster{opts: opts, conn: opts.Conn, dedup: newDedupWindow(dedupWindowSize)}
	c.chunkMap = chunkMap{
		shards:       opts.Shards,
		maxBytes:     opts.ChunkMaxBytes,
		balanceEvery: opts.AutoBalanceEvery,
	}
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
	if c.closed {
		return ErrClosed
	}
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
	c.chunks = []*Chunk{{Min: key.MinTuple(), Max: key.MaxTuple(), Shard: 0, sumExact: true}}
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
	if c.closed {
		return ErrClosed
	}
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
// needs — the shard-key tuple, the index keys, the summary cell, the
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
	tuple := c.key.AppendTupleRaw(buf[:0], raw)
	ci := c.findChunk(tuple)
	if ci < 0 {
		return fmt.Errorf("sharding: no chunk for tuple (shard key %s)", c.key)
	}
	ch := c.chunks[ci]
	if _, err := c.shards[ch.Shard].Coll.InsertRaw(raw); err != nil {
		return err
	}
	c.fpDocs++
	c.fpSum += docChecksum(raw)
	c.bumpEpochLocked(ch.Shard)
	c.summaryAddLocked(ch, raw)
	c.placed(ci, len(raw), tuple, c)
	return nil
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

// afterSplit rebuilds both halves' cells from the data. The shard's
// content did not change, but its chunk map did: bump the epoch so
// cached routes re-validate.
func (c *Cluster) afterSplit(left, right *Chunk) {
	c.bumpEpochLocked(left.Shard)
	c.rebuildChunkSummaryLocked(left)
	c.rebuildChunkSummaryLocked(right)
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
// it (zones constrain the legal destinations). A closed cluster
// refuses with ErrClosed before moving anything; otherwise the error is
// the journal commit's.
func (c *Cluster) Balance() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.balanceLocked()
	// One journal record re-derives the whole run during replay; the
	// individual migrations are not journaled.
	return c.journalCommit(opBalance, nil)
}

func (c *Cluster) balanceLocked() {
	if c.sharded {
		c.balance(c)
	}
}

// moveDocs migrates the chunk's documents — stored bytes in, stored
// bytes out, index keys read from them on both sides. Nothing is
// journaled: replay re-derives migrations from the balance, zone and
// insert records that caused them.
func (c *Cluster) moveDocs(ch *Chunk, to int) {
	from := ch.Shard
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
	// The cells move with the chunk (content unchanged — that is the
	// point of per-chunk granularity); both shards' contents changed.
	c.bumpEpochLocked(from)
	c.bumpEpochLocked(to)
}

// Chunks returns a snapshot of the chunk metadata.
func (c *Cluster) Chunks() []Chunk {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Chunk, len(c.chunks))
	for i, ch := range c.chunks {
		out[i] = *ch
		// The cells stay with the live chunk: a snapshot must not
		// alias a slice the write path keeps mutating.
		out[i].cells = nil
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
