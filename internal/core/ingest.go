package core

// Continuous ingest at the store level.
//
// The paper's pipeline is load-then-query; this file is the north
// star's continuous half. Writes enter through InsertBatch: an
// idempotent, group-committed batch that is applied to the local
// cluster first and then — when the cluster's conn is a write-capable
// network transport — broadcast to every daemon, so the whole
// deployment applies the identical batch and the per-process content
// fingerprints stay converged.

import (
	"context"
	"fmt"

	"repro/internal/sharding"
)

// Ingester returns the store's group-commit batcher, starting it on
// first use.
func (s *Store) Ingester() *sharding.Ingester {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.ingester == nil {
		s.ingester = sharding.NewIngester(s.cluster)
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

// InsertBatchRaw applies one idempotent client batch of encoded
// documents (sharding.BatchInserter says what they must be; the store
// owns them afterwards). A Hilbert store's documents must also carry
// their location's cell as hilbertIndex, as Encoder writes it: the wire
// edge refuses others (query.Containment.Check), and in-process callers
// pass the store's own encoding. The batch goes through the local group-commit
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

// InsertRecords encodes the approach's documents for recs and applies
// them as one idempotent batch — the record-level convenience the
// in-process ingest drivers (bench, chaos reference) use. Each document
// is encoded here, once.
func (s *Store) InsertRecords(ctx context.Context, batchID string, recs []Record) (applied int, dup bool, err error) {
	raws := make([][]byte, len(recs))
	for i := range recs {
		raws[i], err = s.encode(recs[i])
		if err != nil {
			return 0, false, fmt.Errorf("core: batch %q record %d: %w", batchID, i, err)
		}
	}
	return s.InsertBatchRaw(ctx, batchID, raws)
}

// closeIngest stops the batcher, draining admitted batches; called
// from Store.Close before the cluster closes.
func (s *Store) closeIngest() {
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

// Encode returns the stored document's bytes for one record, exactly
// as the store's own write path encodes it.
func (e *Encoder) Encode(rec Record) ([]byte, error) { return e.s.encode(rec) }
