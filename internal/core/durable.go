package core

// Durable stores: a store directory holds the cluster's write-ahead
// journal and checkpoint snapshots (internal/wal via the sharding
// layer) plus a store.json manifest recording the structural half of
// the Config — the part that determines what the journaled operations
// mean (approach, curve, shard count, seed, ...). Reopening the
// directory reads the manifest, recovers the cluster and keeps every
// other setting of the caller's Config, so `stquery -dir d` needs no
// approach flags at all.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/sfc"
	"repro/internal/sharding"
)

// ManifestName is the structural-configuration file of a durable
// store directory.
const ManifestName = "store.json"

// manifest is the JSON shape of the structural configuration.
type manifest struct {
	Approach         string      `json:"approach"`
	Shards           int         `json:"shards"`
	ChunkMaxBytes    int64       `json:"chunk_max_bytes,omitempty"`
	HilbertOrder     uint        `json:"hilbert_order,omitempty"`
	Curve            string      `json:"curve,omitempty"`       // "hilbert" (default) or "zorder"
	DataExtent       *[4]float64 `json:"data_extent,omitempty"` // minLon, minLat, maxLon, maxLat
	Hashed           bool        `json:"hashed,omitempty"`
	AutoBalanceEvery int         `json:"auto_balance_every,omitempty"`
	Seed             uint64      `json:"seed,omitempty"`
}

// manifestOf captures the structural fields of an effective config.
func manifestOf(cfg Config) (manifest, error) {
	m := manifest{
		Approach:         cfg.Approach.String(),
		Shards:           cfg.Shards,
		ChunkMaxBytes:    cfg.ChunkMaxBytes,
		HilbertOrder:     cfg.HilbertOrder,
		Hashed:           cfg.Hashed,
		AutoBalanceEvery: cfg.AutoBalanceEvery,
		Seed:             cfg.Seed,
	}
	switch c := cfg.Curve.(type) {
	case nil:
	case *sfc.Hilbert:
		m.Curve, m.HilbertOrder = "hilbert", c.Order()
	case *sfc.ZOrder:
		m.Curve, m.HilbertOrder = "zorder", c.Order()
	default:
		return m, fmt.Errorf("core: curve %T cannot be recorded in a durable store", cfg.Curve)
	}
	if cfg.DataExtent.Valid() {
		r := cfg.DataExtent
		m.DataExtent = &[4]float64{r.Min.Lon, r.Min.Lat, r.Max.Lon, r.Max.Lat}
	}
	return m, nil
}

// config overwrites the caller's Config with every field the manifest
// records; the rest — Parallel, Resilience, Conn, ResultCacheBytes,
// Dir, Sync, FS — stay the caller's. The chunks' cells are not
// recorded either: recovery rebuilds them from the recovered data.
func (m manifest) config(cfg Config) (Config, error) {
	cfg.Shards = m.Shards
	cfg.ChunkMaxBytes = m.ChunkMaxBytes
	cfg.HilbertOrder = m.HilbertOrder
	cfg.Hashed = m.Hashed
	cfg.AutoBalanceEvery = m.AutoBalanceEvery
	cfg.Seed = m.Seed
	cfg.Curve, cfg.DataExtent = nil, geo.Rect{}
	var ok bool
	if cfg.Approach, ok = ParseApproach(m.Approach); !ok {
		return cfg, fmt.Errorf("core: manifest names unknown approach %q", m.Approach)
	}
	switch m.Curve {
	case "", "hilbert":
	case "zorder":
		z, err := sfc.NewZOrder(m.HilbertOrder)
		if err != nil {
			return cfg, err
		}
		cfg.Curve = z
	default:
		return cfg, fmt.Errorf("core: manifest names unknown curve %q", m.Curve)
	}
	if m.DataExtent != nil {
		e := *m.DataExtent
		cfg.DataExtent = geo.NewRect(e[0], e[1], e[2], e[3])
	}
	return cfg.withDefaults(), nil
}

// openDurable opens (or creates) the durable store at cfg.Dir.
func openDurable(cfg Config) (*Store, error) {
	path := filepath.Join(cfg.Dir, ManifestName)
	blob, err := os.ReadFile(path)
	switch {
	case err == nil:
		var m manifest
		if err := json.Unmarshal(blob, &m); err != nil {
			return nil, fmt.Errorf("core: parsing %s: %w", path, err)
		}
		mcfg, err := m.config(cfg)
		if err != nil {
			return nil, err
		}
		s, err := newStore(mcfg)
		if err != nil {
			return nil, err
		}
		if s.cluster, err = sharding.OpenCluster(s.clusterOptions()); err != nil {
			return nil, err
		}
		if _, sharded := s.cluster.ShardKeyOf(); !sharded {
			// Manifest written, crash before the DDL reached the
			// journal: finish the setup now.
			if err := s.createDDL(); err != nil {
				return nil, err
			}
		}
		// Re-seed the id generator from the recovery point so ids
		// minted after reopening cannot collide with pre-crash ones
		// (the generator's counter state is not journaled).
		s.idGen = bson.NewObjectIDGen(mcfg.Seed ^ (0x9E3779B97F4A7C15 * s.cluster.LSN()))
		return s, nil

	case errors.Is(err, fs.ErrNotExist):
		m, err := manifestOf(cfg)
		if err != nil {
			return nil, err
		}
		s, err := newStore(cfg)
		if err != nil {
			return nil, err
		}
		if s.cluster, err = sharding.OpenCluster(s.clusterOptions()); err != nil {
			return nil, err
		}
		if _, sharded := s.cluster.ShardKeyOf(); !sharded {
			if err := s.createDDL(); err != nil {
				return nil, err
			}
		}
		out, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("core: writing manifest: %w", err)
		}
		return s, nil

	default:
		return nil, fmt.Errorf("core: reading %s: %w", path, err)
	}
}

// OpenDir reopens an existing durable store directory, recovering its
// contents. The structural configuration comes from the directory's
// manifest and overrides those fields of cfg; every other field of cfg
// (Parallel, Resilience, Conn, ResultCacheBytes, Sync, ...) applies as
// given. It fails if dir was not created by a durable Open — use Open
// with Config.Dir to create one.
func OpenDir(dir string, cfg Config) (*Store, error) {
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err != nil {
		return nil, fmt.Errorf("core: %s is not a store directory: %w", dir, err)
	}
	cfg.Dir = dir
	return Open(cfg)
}

// Durable reports whether the store journals to a directory.
func (s *Store) Durable() bool { return s.cluster.Durable() }

// Checkpoint snapshots the durable store's full state and resets the
// journal, bounding recovery time. It fails on an in-memory store.
func (s *Store) Checkpoint() error { return s.cluster.Checkpoint() }

// Sync forces buffered journal frames to stable storage.
func (s *Store) Sync() error { return s.cluster.Sync() }

// Close stops the ingest batcher (draining admitted batches), then
// syncs and closes the journal; journal-less stores just stop the
// batcher.
func (s *Store) Close() error {
	s.closeIngest()
	return s.cluster.Close()
}

// Fingerprint identifies the stored data set: the live document count
// and an order-independent checksum over the raw document bytes. Two
// stores holding the same documents fingerprint identically regardless
// of shard placement.
func (s *Store) Fingerprint() (docs int, checksum uint64) {
	return s.cluster.ContentFingerprint()
}
