package traj

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/bson"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/sfc"
	"repro/internal/sharding"
)

// StoreConfig configures a segment store.
type StoreConfig struct {
	// Shards, ChunkMaxBytes and HilbertOrder mirror core.Config.
	Shards        int
	ChunkMaxBytes int64
	HilbertOrder  uint
	// Extent is the Hilbert grid extent (default the whole world).
	Extent geo.Rect
	// Seed drives _id generation (default 1).
	Seed uint64
}

// Store persists trajectory segments in a sharded collection keyed
// spatio-temporally: the shard key is {hilbertIndex, startDate} where
// hilbertIndex encodes the segment MBR's centre, so trips cluster by
// where they happened and when they started — the paper's layout
// generalised from points to polylines.
type Store struct {
	mu      sync.Mutex
	cluster *sharding.Cluster
	grid    *sfc.Grid
	idGen   *bson.ObjectIDGen

	// Query dilation state: how far a segment's centre can sit from a
	// point it contains, and how long a segment can last.
	maxHalfW float64
	maxHalfH float64
	maxDur   time.Duration
	count    int
}

// OpenStore creates the sharded segment collection.
func OpenStore(cfg StoreConfig) (*Store, error) {
	if cfg.HilbertOrder == 0 {
		cfg.HilbertOrder = core.DefaultHilbertOrder
	}
	if !cfg.Extent.Valid() || cfg.Extent.Width() <= 0 {
		cfg.Extent = geo.World
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	h, err := sfc.NewHilbert(cfg.HilbertOrder)
	if err != nil {
		return nil, err
	}
	grid, err := sfc.NewGrid(h, cfg.Extent)
	if err != nil {
		return nil, err
	}
	cluster := sharding.NewCluster(sharding.Options{
		Shards:        cfg.Shards,
		ChunkMaxBytes: cfg.ChunkMaxBytes,
	})
	if err := cluster.ShardCollection(sharding.ShardKey{
		Fields: []string{core.FieldHilbert, "startDate"},
	}); err != nil {
		return nil, err
	}
	return &Store{
		cluster: cluster,
		grid:    grid,
		idGen:   bson.NewObjectIDGen(cfg.Seed),
	}, nil
}

// Cluster exposes the underlying cluster.
func (s *Store) Cluster() *sharding.Cluster { return s.cluster }

// Len returns the number of stored segments.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Insert stores one segment.
func (s *Store) Insert(seg *Segment) error {
	if len(seg.Points) == 0 {
		return fmt.Errorf("traj: empty segment")
	}
	doc := seg.Document()
	doc.Set(core.FieldID, s.idGen.New(seg.Start))
	doc.Set(core.FieldHilbert, int64(s.grid.Encode(seg.MBR.Center())))
	if err := s.cluster.Insert(doc); err != nil {
		return err
	}
	s.mu.Lock()
	s.maxHalfW = math.Max(s.maxHalfW, seg.MBR.Width()/2)
	s.maxHalfH = math.Max(s.maxHalfH, seg.MBR.Height()/2)
	if d := seg.Duration(); d > s.maxDur {
		s.maxDur = d
	}
	s.count++
	s.mu.Unlock()
	return nil
}

// Load bulk-inserts segments and balances the cluster.
func (s *Store) Load(segs []*Segment) error {
	for i, seg := range segs {
		if err := s.Insert(seg); err != nil {
			return fmt.Errorf("traj: loading segment %d: %w", i, err)
		}
	}
	s.cluster.Balance()
	return nil
}

// QueryResult is the outcome of a segment query.
type QueryResult struct {
	// Segments pass the exact test: at least one trace inside the
	// rectangle within the time window.
	Segments []*Segment
	// Candidates counts segments fetched before exact refinement.
	Candidates int
	// Nodes is the number of shards the query touched.
	Nodes int
	// Duration is the scatter-gather time, excluding refinement.
	Duration time.Duration
}

// Query returns the segments with at least one trace inside rect
// during [from, to]. Routing uses the Hilbert cover of the query
// rectangle dilated by the largest stored segment half-extent, so a
// long trip whose centre lies outside the rectangle is still found.
func (s *Store) Query(rect geo.Rect, from, to time.Time) (*QueryResult, error) {
	s.mu.Lock()
	dilated := geo.Rect{
		Min: geo.Point{Lon: rect.Min.Lon - s.maxHalfW, Lat: rect.Min.Lat - s.maxHalfH},
		Max: geo.Point{Lon: rect.Max.Lon + s.maxHalfW, Lat: rect.Max.Lat + s.maxHalfH},
	}
	earliestStart := from.Add(-s.maxDur)
	s.mu.Unlock()
	dilated.Min.Lon = math.Max(dilated.Min.Lon, -180)
	dilated.Min.Lat = math.Max(dilated.Min.Lat, -90)
	dilated.Max.Lon = math.Min(dilated.Max.Lon, 180)
	dilated.Max.Lat = math.Min(dilated.Max.Lat, 90)

	f := query.NewAnd(
		core.HilbertConstraint(s.grid.Cover(dilated)),
		// Time overlap: startDate <= to AND endDate >= from; the
		// lower startDate bound narrows routing via the shard key.
		query.Cmp{Field: "startDate", Op: query.OpGTE, Value: earliestStart.UTC()},
		query.Cmp{Field: "startDate", Op: query.OpLTE, Value: to.UTC()},
		query.Cmp{Field: "endDate", Op: query.OpGTE, Value: from.UTC()},
	)
	routed := s.cluster.Query(f)
	out := &QueryResult{
		Candidates: routed.TotalReturned,
		Nodes:      routed.ShardsTargeted,
		Duration:   routed.Duration,
	}
	for _, raw := range routed.Docs {
		seg, err := SegmentFromDocument(raw)
		if err != nil {
			return nil, err
		}
		if !seg.MBR.Intersects(rect) {
			continue
		}
		if seg.HasTraceIn(rect, from, to) {
			out.Segments = append(out.Segments, seg)
		}
	}
	return out, nil
}

// HasTraceIn reports whether any trace of the segment lies inside the
// rectangle within [from, to].
func (s *Segment) HasTraceIn(rect geo.Rect, from, to time.Time) bool {
	for i, p := range s.Points {
		if !rect.Contains(p) {
			continue
		}
		if t := s.Times[i]; !t.Before(from) && !t.After(to) {
			return true
		}
	}
	return false
}
