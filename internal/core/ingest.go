package core

// Continuous ingest and retention at the store level.
//
// The paper's pipeline is load-then-query; this file is the north
// star's continuous half. Writes enter through InsertBatch: an
// idempotent, group-committed batch that is applied to the local
// cluster first and then — when the cluster's conn is a write-capable
// network transport — broadcast to every daemon, so the whole
// deployment applies the identical batch and the per-process content
// fingerprints stay converged. Retention is the other half: a
// background loop that drops documents older than a TTL through the
// cluster's journaled shard-key range drop.

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/bson"
	"repro/internal/keyenc"
	"repro/internal/sharding"
)

// SetIngestOptions bounds the store's group-commit batcher. It must be
// called before the first write through the batcher; later calls are
// ignored (the batcher is already running).
func (s *Store) SetIngestOptions(opts sharding.IngestOptions) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.ingester == nil {
		s.ingestOpts = opts
	}
}

// Ingester returns the store's group-commit batcher, starting it on
// first use.
func (s *Store) Ingester() *sharding.Ingester {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.ingester == nil {
		s.ingester = sharding.NewIngester(s.cluster, s.ingestOpts)
	}
	return s.ingester
}

// IngestStats snapshots the batcher's counters (zero if no write has
// started it yet).
func (s *Store) IngestStats() sharding.IngestStats {
	s.ingestMu.Lock()
	in := s.ingester
	s.ingestMu.Unlock()
	if in == nil {
		return sharding.IngestStats{}
	}
	return in.Stats()
}

// InsertBatch encodes docs and applies them as one idempotent client
// batch: InsertBatchRaw on their encodings.
func (s *Store) InsertBatch(ctx context.Context, batchID string, docs []*bson.Document) (applied int, dup bool, err error) {
	return s.InsertBatchRaw(ctx, batchID, bson.MarshalAll(docs))
}

// InsertBatchRaw applies one idempotent client batch of encoded
// documents (sharding.BatchInserter says what they must be; the store
// owns them afterwards). The batch goes through the local group-commit
// batcher first (journal + dedup window live there), then — when the
// cluster's execution boundary is a write-capable transport
// (netconn.RemoteConn) — the same bytes are broadcast to every daemon
// under the same batchID. Any failure leaves the batch retryable: every
// process that already applied it answers dup, so a retry converges
// instead of double-applying.
func (s *Store) InsertBatchRaw(ctx context.Context, batchID string, docs [][]byte) (applied int, dup bool, err error) {
	applied, dup, err = s.Ingester().InsertBatchRaw(ctx, batchID, docs)
	if err != nil {
		return 0, false, err
	}
	if bi, ok := s.cluster.Options().Conn.(sharding.BatchInserter); ok {
		ra, rdup, rerr := bi.InsertBatchRaw(ctx, batchID, docs)
		if rerr != nil {
			return 0, false, rerr
		}
		if !rdup {
			// A daemon that had not seen the batch yet (partial earlier
			// broadcast) makes this a fresh application, whatever the
			// local verdict was.
			dup = false
			if ra > applied {
				applied = ra
			}
		}
	}
	return applied, dup, err
}

// InsertRecords builds and encodes the approach's documents for recs
// and applies them as one idempotent batch — the record-level
// convenience the in-process ingest drivers (bench, chaos reference)
// use. Each document is encoded here, once.
func (s *Store) InsertRecords(ctx context.Context, batchID string, recs []Record) (applied int, dup bool, err error) {
	raws := make([][]byte, len(recs))
	for i := range recs {
		doc, err := s.Document(recs[i])
		if err != nil {
			return 0, false, fmt.Errorf("core: batch %q record %d: %w", batchID, i, err)
		}
		raws[i] = bson.Marshal(doc)
	}
	return s.InsertBatchRaw(ctx, batchID, raws)
}

// closeIngest stops the batcher (draining admitted batches) and the
// retention loop; called from Store.Close before the cluster closes.
func (s *Store) closeIngest() {
	s.StopRetention()
	s.ingestMu.Lock()
	in := s.ingester
	s.ingestMu.Unlock()
	if in != nil {
		_ = in.Close()
	}
}

// Encoder builds approach-shaped documents without a cluster: the
// client side of the wire write path (stload -follow) encodes records
// exactly like the store would, then ships the raw documents to the
// router.
type Encoder struct {
	s *Store
}

// NewEncoder validates cfg's approach and builds its encoders (Hilbert
// grid, ST-Hash encoder, deterministic id generator).
func NewEncoder(cfg Config) (*Encoder, error) {
	s, err := newStore(cfg.withDefaults())
	if err != nil {
		return nil, err
	}
	return &Encoder{s: s}, nil
}

// Document builds the stored document for one record.
func (e *Encoder) Document(rec Record) (*bson.Document, error) { return e.s.Document(rec) }

// --- TTL retention ----------------------------------------------------

// RetentionStats counts the background retention loop's work.
type RetentionStats struct {
	Runs    uint64 `json:"runs"`    // completed retention sweeps
	Dropped uint64 `json:"dropped"` // documents dropped across all sweeps
	Errors  uint64 `json:"errors"`  // sweeps that failed
}

// retentionLoop is the background TTL reaper's state.
type retentionLoop struct {
	stop chan struct{}
	done chan struct{}

	runs, dropped, errs atomic.Uint64
}

// retentionSupported reports whether the approach's shard key can
// express "older than": retention drops below a shard-key prefix, so
// the key must lead with the date under range sharding. The Hilbert
// and ST-Hash keys lead with space — their retention would need a
// secondary-index scan, which this store does not implement.
func (s *Store) retentionSupported() error {
	switch s.cfg.Approach {
	case BslST, BslTS:
	default:
		return fmt.Errorf("core: retention requires a date-leading shard key (approach %s)", s.cfg.Approach)
	}
	if s.cfg.Hashed {
		return fmt.Errorf("core: retention requires range sharding (hashed keys scatter the time order)")
	}
	return nil
}

// DropBefore drops every document whose date sorts strictly below
// cutoff, as one journaled operation. It returns the documents
// dropped.
func (s *Store) DropBefore(cutoff time.Time) (int, error) {
	if err := s.retentionSupported(); err != nil {
		return 0, err
	}
	prefix := keyenc.Encode(bson.Normalize(cutoff.UTC()))
	return s.cluster.DropBelowShardKey(prefix)
}

// StartRetention launches the background TTL loop: every sweep
// interval it drops documents older than ttl. every <= 0 defaults to
// ttl/4 clamped into [1s, 60s]. Idempotent start is an error (stop
// first); StopRetention (and Store.Close) end the loop.
func (s *Store) StartRetention(ttl, every time.Duration) error {
	if ttl <= 0 {
		return fmt.Errorf("core: retention ttl must be positive")
	}
	if err := s.retentionSupported(); err != nil {
		return err
	}
	if every <= 0 {
		every = ttl / 4
		if every < time.Second {
			every = time.Second
		}
		if every > time.Minute {
			every = time.Minute
		}
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.retention != nil {
		return fmt.Errorf("core: retention loop already running")
	}
	loop := &retentionLoop{stop: make(chan struct{}), done: make(chan struct{})}
	s.retention = loop
	go func() {
		defer close(loop.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-loop.stop:
				return
			case now := <-tick.C:
				n, err := s.DropBefore(now.Add(-ttl))
				if err != nil {
					loop.errs.Add(1)
					continue
				}
				loop.runs.Add(1)
				loop.dropped.Add(uint64(n))
			}
		}
	}()
	return nil
}

// StopRetention stops the TTL loop and waits for its current sweep to
// finish. Safe to call when no loop is running.
func (s *Store) StopRetention() {
	s.ingestMu.Lock()
	loop := s.retention
	s.retention = nil
	s.ingestMu.Unlock()
	if loop == nil {
		return
	}
	close(loop.stop)
	<-loop.done
	s.ingestMu.Lock()
	s.retentionFinal = RetentionStats{
		Runs:    loop.runs.Load(),
		Dropped: loop.dropped.Load(),
		Errors:  loop.errs.Load(),
	}
	s.ingestMu.Unlock()
}

// RetentionStats snapshots the TTL loop's counters — the running
// loop's if one is active, otherwise the final counters of the last
// stopped loop.
func (s *Store) RetentionStats() RetentionStats {
	s.ingestMu.Lock()
	loop, last := s.retention, s.retentionFinal
	s.ingestMu.Unlock()
	if loop == nil {
		return last
	}
	return RetentionStats{
		Runs:    loop.runs.Load(),
		Dropped: loop.dropped.Load(),
		Errors:  loop.errs.Load(),
	}
}
