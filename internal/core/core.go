// Package core implements the paper's contribution: spatio-temporal
// storage and querying over the document store, in the four
// configurations the evaluation compares.
//
//   - BslST — the baseline: shard on date, compound index
//     {location: 2dsphere, date: 1} (space first).
//   - BslTS — the baseline with the index order flipped:
//     {date: 1, location: 2dsphere} (time first).
//   - Hil — the proposal: a Hilbert-curve value over the whole globe
//     stored as a hilbertIndex field, shard key and compound index
//     {hilbertIndex: 1, date: 1}.
//   - HilStar — Hil with the curve's extent restricted to the data
//     set's bounding rectangle (same bits, finer cells).
//
// A Store wraps a simulated sharded cluster, builds the approach's
// documents and indexes on insert, generates the approach's query
// filter (including the $or-of-ranges + $in constraint on
// hilbertIndex described in Section 4.2.2), and reports the paper's
// four metrics per query.
package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/sfc"
	"repro/internal/sharding"
	"repro/internal/sthash"
	"repro/internal/wal"
)

// Approach selects one of the paper's four configurations.
type Approach int

// The evaluated approaches: the paper's four, plus the ST-Hash
// related-work encoding (Section 2.2) implemented for comparison.
const (
	BslST Approach = iota
	BslTS
	Hil
	HilStar
	STHash
)

// String returns the paper's name for the approach.
func (a Approach) String() string {
	switch a {
	case BslST:
		return "bslST"
	case BslTS:
		return "bslTS"
	case Hil:
		return "hil"
	case HilStar:
		return "hil*"
	case STHash:
		return "sthash"
	}
	return fmt.Sprintf("approach(%d)", int(a))
}

// Approaches lists the paper's four configurations in the paper's
// order. The ST-Hash comparison approach is separate; see
// AllApproaches.
func Approaches() []Approach { return []Approach{BslST, BslTS, Hil, HilStar} }

// AllApproaches additionally includes the ST-Hash related-work
// encoding.
func AllApproaches() []Approach { return append(Approaches(), STHash) }

// ParseApproach is the inverse of Approach.String over AllApproaches:
// the name a flag or a manifest gives, back to the approach.
func ParseApproach(s string) (Approach, bool) {
	for _, a := range AllApproaches() {
		if a.String() == s {
			return a, true
		}
	}
	return 0, false
}

// Document field names.
const (
	FieldID      = "_id"
	FieldLoc     = "location"
	FieldDate    = "date"
	FieldHilbert = "hilbertIndex"
	FieldSTHash  = "stHash"
)

// Config configures a Store.
type Config struct {
	// Approach selects the indexing/sharding scheme.
	Approach Approach
	// Shards is the number of data-bearing nodes (default 12).
	Shards int
	// ChunkMaxBytes is the chunk split threshold (default
	// sharding.DefaultChunkMaxBytes).
	ChunkMaxBytes int64
	// HilbertOrder is the curve's bits per dimension (default 13, the
	// paper's setting).
	HilbertOrder uint
	// DataExtent is the data set's bounding rectangle; required for
	// HilStar, ignored otherwise.
	DataExtent geo.Rect
	// Curve selects the space-filling curve for Hil/HilStar; nil
	// means Hilbert (the z-order alternative exists for the
	// ablation).
	Curve sfc.Curve
	// MaxQueryRanges caps the number of hilbertIndex ranges in a
	// generated query filter; excess ranges coalesce (over-covering).
	// 0 means unlimited, matching the paper.
	MaxQueryRanges int
	// Hashed switches the shard key to hashed sharding. The paper
	// uses range sharding throughout; this exists for the ablation
	// that shows why (hashed keys cannot route range queries).
	Hashed bool
	// AutoBalanceEvery forwards to sharding.Options.
	AutoBalanceEvery int
	// Parallel is the scatter-gather worker-pool width (forwards to
	// sharding.Options.Parallel): 0 means GOMAXPROCS, 1 forces the
	// sequential execution the paper-metric experiments are defined
	// on (the metrics themselves are identical at every width).
	Parallel int
	// Resilience configures the scatter-gather fault handling: the
	// partial-result policy and the per-shard attempt deadline. The
	// zero value fails fast; retries and the circuit breaker always run.
	Resilience sharding.Resilience
	// Conn is the per-shard execution boundary (nil means the
	// in-process LocalConn). A netconn.RemoteConn here turns the store
	// into a network router whose shard executions travel to stshardd
	// processes; it can also be swapped later via Cluster().SetConn.
	Conn sharding.ShardConn
	// ResultCacheBytes bounds the router's epoch-invalidated result
	// cache; 0 disables caching.
	ResultCacheBytes int64
	// Seed drives deterministic _id generation (default 1).
	Seed uint64
	// Dir, when non-empty, makes the store durable: every write is
	// journaled under this directory, Checkpoint() snapshots the full
	// state there, and reopening the same directory recovers the store
	// (see OpenDir). A store.json manifest in the directory records
	// the structural configuration; on reopen it takes precedence over
	// the structural fields of this Config.
	Dir string
	// Sync is the journal fsync policy for a durable store (default
	// wal.SyncBatch, group commit).
	Sync wal.SyncPolicy
	// FS overrides the durable store's filesystem (default: the OS
	// filesystem rooted at Dir). A wal.FaultFS here injects journal
	// faults or latency — how the tests crash mid-commit and how the
	// bench makes group commits slow enough that admission control
	// has something real to push back on. Runtime-only: never
	// recorded in the manifest.
	FS wal.FS
}

// DefaultHilbertOrder is the paper's 13-bit curve precision.
const DefaultHilbertOrder = 13

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = sharding.DefaultShards
	}
	if c.HilbertOrder == 0 {
		c.HilbertOrder = DefaultHilbertOrder
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Store is a spatio-temporal document store in one of the paper's
// four configurations.
type Store struct {
	cfg     Config
	cluster *sharding.Cluster
	grid    *sfc.Grid       // non-nil for the Hilbert approaches
	sth     *sthash.Encoder // non-nil for the STHash approach
	idGen   *bson.ObjectIDGen

	// Continuous-ingest state (see ingest.go): the lazily-started
	// group-commit batcher.
	ingestMu sync.Mutex
	ingester *sharding.Ingester
}

// Open creates the cluster, shards the collection and creates the
// approach's indexes. With Config.Dir set the store is durable:
// opening an empty directory creates a journaled store, opening a
// populated one recovers it (snapshot + journal replay) and skips the
// DDL, which the journal already carries.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir != "" {
		return openDurable(cfg)
	}
	s, err := newStore(cfg)
	if err != nil {
		return nil, err
	}
	s.cluster = sharding.NewCluster(s.clusterOptions())
	if err := s.createDDL(); err != nil {
		return nil, err
	}
	return s, nil
}

// clusterOptions maps the store's config onto the sharding layer's
// options. A Hilbert store writes every document's hilbertIndex from its
// location, and its wire edge refuses documents encoded otherwise, so a
// query may trust the index key of a document in a cell strictly inside
// its rectangle (query.Containment): a count or heatmap takes the
// document from the key, and a document query keeps it unrefined.
func (s *Store) clusterOptions() sharding.Options {
	c := s.cfg
	var qc *query.Config
	if s.grid != nil {
		qc = &query.Config{Contain: &query.Containment{
			Leading: FieldHilbert, Geo: FieldLoc, Cell: s.grid.Encode,
			Interior: s.grid.InteriorBox, XY: s.grid.Curve().D2XY,
		}}
	}
	return sharding.Options{
		QueryConfig:      qc,
		Shards:           c.Shards,
		ChunkMaxBytes:    c.ChunkMaxBytes,
		SummaryShift:     c.summaryShift(),
		ResultCacheBytes: c.ResultCacheBytes,
		AutoBalanceEvery: c.AutoBalanceEvery,
		Parallel:         c.Parallel,
		Resilience:       c.Resilience,
		Conn:             c.Conn,
		Dir:              c.Dir,
		Sync:             c.Sync,
		FS:               c.FS,
	}
}

// summaryShift is the shift of the per-chunk occupied coarse cells
// that let the router skip provably-empty shards. The Hilbert
// approaches, whose leading shard-key field is the integer curve value
// the cells need, group the 2·order-bit curve values into roughly 2^16
// coarse cells; the rest (string or time shard keys that have no cells)
// keep no summaries.
func (c Config) summaryShift() int {
	switch c.Approach {
	case Hil, HilStar:
		if s := 2*int(c.HilbertOrder) - 16; s > 0 {
			return s
		}
		return 1
	}
	return 0
}

// newStore validates the approach and builds its in-memory encoders
// (Hilbert grid, ST-Hash encoder, id generator) without touching any
// cluster — shared by the fresh-open and recovery paths.
func newStore(cfg Config) (*Store, error) {
	s := &Store{
		cfg:   cfg,
		idGen: bson.NewObjectIDGen(cfg.Seed),
	}
	switch cfg.Approach {
	case BslST, BslTS:
	case Hil, HilStar:
		extent := geo.World
		if cfg.Approach == HilStar {
			if !cfg.DataExtent.Valid() || cfg.DataExtent.Width() <= 0 || cfg.DataExtent.Height() <= 0 {
				return nil, fmt.Errorf("core: hil* requires a valid DataExtent")
			}
			extent = cfg.DataExtent
		}
		curve := cfg.Curve
		if curve == nil {
			h, err := sfc.NewHilbert(cfg.HilbertOrder)
			if err != nil {
				return nil, err
			}
			curve = h
		}
		grid, err := sfc.NewGrid(curve, extent)
		if err != nil {
			return nil, err
		}
		s.grid = grid
	case STHash:
		s.sth = &sthash.Encoder{SpatialChars: sthash.DefaultSpatialChars}
	default:
		return nil, fmt.Errorf("core: unknown approach %d", int(cfg.Approach))
	}
	return s, nil
}

// createDDL shards the collection and creates the approach's indexes
// on a fresh cluster. Recovery skips it: the DDL records are in the
// journal (or implied by the snapshot).
func (s *Store) createDDL() error {
	cfg := s.cfg
	strategy := sharding.RangeSharding
	if cfg.Hashed {
		strategy = sharding.HashedSharding
	}
	switch cfg.Approach {
	case BslST:
		if err := s.cluster.ShardCollection(sharding.ShardKey{Fields: []string{FieldDate}, Strategy: strategy}); err != nil {
			return err
		}
		return s.cluster.CreateIndex(index.Definition{
			Name: "location_2dsphere_date_1",
			Fields: []index.Field{
				{Name: FieldLoc, Kind: index.Geo2DSphere},
				{Name: FieldDate, Kind: index.Ascending},
			},
		})
	case BslTS:
		if err := s.cluster.ShardCollection(sharding.ShardKey{Fields: []string{FieldDate}, Strategy: strategy}); err != nil {
			return err
		}
		return s.cluster.CreateIndex(index.Definition{
			Name: "date_1_location_2dsphere",
			Fields: []index.Field{
				{Name: FieldDate, Kind: index.Ascending},
				{Name: FieldLoc, Kind: index.Geo2DSphere},
			},
		})
	case Hil, HilStar:
		// The shard key {hilbertIndex, date} creates the compound
		// spatio-temporal index on every shard automatically; no
		// extra index is needed (Section 4.2.2).
		return s.cluster.ShardCollection(sharding.ShardKey{
			Fields:   []string{FieldHilbert, FieldDate},
			Strategy: strategy,
		})
	case STHash:
		// One string field carries both dimensions; the shard key
		// (and its automatic index) is that field alone.
		return s.cluster.ShardCollection(sharding.ShardKey{
			Fields:   []string{FieldSTHash},
			Strategy: strategy,
		})
	}
	return fmt.Errorf("core: unknown approach %d", int(cfg.Approach))
}

// Config returns the effective configuration.
func (s *Store) Config() Config { return s.cfg }

// Cluster exposes the underlying cluster for statistics and
// inspection.
func (s *Store) Cluster() *sharding.Cluster { return s.cluster }

// SetParallel changes the scatter-gather pool width on the loaded
// store (0 restores the GOMAXPROCS default, 1 forces sequential
// execution) — the throughput experiment uses it to compare widths
// without rebuilding the cluster.
func (s *Store) SetParallel(n int) { s.cluster.SetParallel(n) }

// Grid returns the Hilbert grid (nil for the baselines).
func (s *Store) Grid() *sfc.Grid { return s.grid }

// Record is one spatio-temporal observation to store: a position, a
// timestamp and any number of additional payload fields (the paper's
// R data set carries 75 values per record).
type Record struct {
	Point  geo.Point
	Time   time.Time
	Fields bson.D
}

// Insert stores one record.
func (s *Store) Insert(rec Record) error {
	raw, err := s.encode(rec)
	if err != nil {
		return err
	}
	_, _, err = s.cluster.InsertBatchRaw("", [][]byte{raw})
	return err
}

// Load bulk-inserts records and runs a final balancing round, like
// the paper's loading procedure (bulk insertion through the query
// routers with the balancer running in the background): the store
// ends as if each record had been inserted alone, in record order, and
// then balanced, with the same ObjectIDs and, durably, the same
// journal (sharding.Cluster.Load). Every record is checked before any
// is applied: a record that cannot be encoded refuses the whole load,
// and the store, ObjectID sequence included, stays as it was.
//
// The records are encoded across the cluster's worker width
// (Config.Parallel); a store that has never held a document places
// them all on their keys first and then stores each once, in its final
// shard.
func (s *Store) Load(recs []Record) error {
	raws, err := s.encodeAll(recs)
	if err != nil {
		return err
	}
	if err := s.cluster.Load(raws); err != nil {
		return fmt.Errorf("core: loading: %w", err)
	}
	return nil
}

// encodeAll checks every record, then draws the ObjectIDs in record
// order and encodes the records; checking and encoding run on
// contiguous blocks of records across the cluster's worker width. A
// refused record draws no ObjectID at all. The encodings share
// buffers of loadBuffer bytes: Cluster.Load stores copies, so the
// buffers die whole after it.
func (s *Store) encodeAll(recs []Record) ([][]byte, error) {
	workers := min(s.cluster.Options().Parallel, max(len(recs), 1))
	errs := make([]error, workers)
	inBlocks(len(recs), workers, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := s.checkRecord(recs[i]); err != nil {
				errs[w] = fmt.Errorf("core: loading record %d: %w", i, err)
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err // the lowest block's first refusal
		}
	}
	ids := make([]bson.ObjectID, len(recs))
	for i := range recs {
		ids[i] = s.idGen.New(recs[i].Time)
	}
	raws := make([][]byte, len(recs))
	inBlocks(len(recs), workers, func(_, lo, hi int) {
		var buf []byte
		for i := lo; i < hi; i++ {
			l := s.layout(recs[i])
			if cap(buf)-len(buf) < l.size {
				buf = make([]byte, 0, max(l.size, loadBuffer))
			}
			start := len(buf)
			buf = s.appendRecord(buf, recs[i], ids[i], l)
			raws[i] = buf[start:len(buf):len(buf)]
		}
	})
	return raws, nil
}

// loadBuffer is the size of the buffers Load encodes records into.
const loadBuffer = 64 << 10

// inBlocks splits [0, n) into workers contiguous blocks and runs fn on
// each, block w on its own goroutine, returning when all are done.
func inBlocks(n, workers int, fn func(w, lo, hi int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, n*w/workers, n*(w+1)/workers)
		}()
	}
	wg.Wait()
}

// ConfigureZones derives one zone per shard with $bucketAuto-style
// even-frequency splits and installs them: on hilbertIndex for the
// Hilbert approaches, on date for the baselines (Section 4.2.4).
func (s *Store) ConfigureZones() error {
	field := FieldDate
	switch {
	case s.grid != nil:
		field = FieldHilbert
	case s.sth != nil:
		field = FieldSTHash
	}
	splits, err := s.cluster.BucketAuto(field, s.cfg.Shards)
	if err != nil {
		return err
	}
	zones := sharding.ZonesFromSplits(field, splits, s.cfg.Shards)
	return s.cluster.SetZones(zones)
}
