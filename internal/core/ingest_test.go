package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// TestStoreInsertBatch: the store-level write path — idempotent
// batches through the group-commit batcher, record-level convenience,
// and ingest counters.
func TestStoreInsertBatch(t *testing.T) {
	leakcheck.Check(t)
	s := openStore(t, Hil, 3)
	defer s.Close()
	if err := s.Load(testRecords(500)); err != nil {
		t.Fatal(err)
	}

	recs := testRecords(600)[500:] // 100 fresh records
	applied, dup, err := s.InsertRecords(context.Background(), "core-b1", recs)
	if err != nil || dup || applied != len(recs) {
		t.Fatalf("insert: applied=%d dup=%v err=%v", applied, dup, err)
	}
	applied, dup, err = s.InsertRecords(context.Background(), "core-b1", recs)
	if err != nil || !dup || applied != 0 {
		t.Fatalf("retry: applied=%d dup=%v err=%v", applied, dup, err)
	}
	if docs, _ := s.Fingerprint(); docs != 600 {
		t.Fatalf("store holds %d docs, want 600", docs)
	}

	// The ingested records answer queries like loaded ones.
	got := s.Count(STQuery{Rect: testExtent, From: testStart, To: testStart.Add(600 * time.Minute)})
	if got != 600 {
		t.Fatalf("count %d, want 600", got)
	}

	st := s.IngestStats()
	if st.Batches != 2 || st.Dups != 1 || st.Applied != uint64(len(recs)) {
		t.Fatalf("ingest stats: %+v", st)
	}
}

// TestStoreInsertBatchCancel: a cancelled context returns early
// without leaking and without double application on retry.
func TestStoreInsertBatchCancel(t *testing.T) {
	leakcheck.Check(t)
	s := openStore(t, Hil, 3)
	defer s.Close()

	recs := testRecords(64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.InsertRecords(ctx, "core-cx", recs); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled insert: %v", err)
	}
	applied, dup, err := s.InsertRecords(context.Background(), "core-cx", recs)
	if err != nil {
		t.Fatal(err)
	}
	if !dup && applied != len(recs) {
		t.Fatalf("retry: applied=%d dup=%v", applied, dup)
	}
	if docs, _ := s.Fingerprint(); docs != len(recs) {
		t.Fatalf("store holds %d docs, want %d (exactly-once)", docs, len(recs))
	}
}
