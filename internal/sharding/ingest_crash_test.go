package sharding

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/bson"
	"repro/internal/wal"
)

// ingestStep is one mutation of the ingest crash workload, tagged so
// boundaries map back to the crash classes the matrix must cover:
// batches (lost-before-journal / journaled / acked) and balances
// (mid-split).
type ingestStep struct {
	kind    string // "ddl" | "batch" | "balance"
	batchID string
	docs    []*bson.Document
}

func (s ingestStep) apply(c *Cluster) error {
	switch s.kind {
	case "ddl":
		return c.ShardCollection(hilbertDateKey())
	case "batch":
		_, _, err := c.InsertBatch(s.batchID, s.docs)
		return err
	case "balance":
		c.Balance()
		return nil
	}
	panic("unknown ingest step " + s.kind)
}

// ingestCrashWorkload: the DDL, then batches interleaved with
// explicit balances (splits + migrations), so the byte matrix crosses
// every journaled ingest op.
func ingestCrashWorkload() []ingestStep {
	steps := []ingestStep{{kind: "ddl"}}
	for i := 0; i < 30; i++ {
		steps = append(steps, ingestStep{
			kind:    "batch",
			batchID: fmt.Sprintf("b%d", i),
			docs:    ingestDocs(int64(1000+i), 24),
		})
		if i%6 == 5 {
			steps = append(steps, ingestStep{kind: "balance"})
		}
	}
	return steps
}

// TestIngestCrashMatrix crashes a durable cluster at (and inside)
// every ingest operation boundary and asserts the five recovery
// contracts of the write path:
//
//  1. queued-not-journaled — a crash before the batch record persists
//     recovers the pre-batch state (the unacked client must retry);
//  2. journaled — a crash right after the record persists recovers
//     the batch in full;
//  3. torn mid-record — every ingest op is ONE journal record, so a
//     crash inside it rolls back atomically (no partial batch, no
//     half-migrated split);
//  4. pre-ack retry — retrying the last persisted batch ID against
//     the recovered cluster answers dup and changes nothing;
//  5. resume — retrying the first unpersisted batch applies it and
//     lands exactly on the next reference state.
func TestIngestCrashMatrix(t *testing.T) {
	steps := ingestCrashWorkload()

	// Reference pass: expected state after each step.
	ref := NewCluster(durOpts("", nil))
	expected := make([]clusterState, 0, len(steps)+1)
	expected = append(expected, captureState(t, ref))
	for _, s := range steps {
		if err := s.apply(ref); err != nil {
			t.Fatal(err)
		}
		expected = append(expected, captureState(t, ref))
	}

	// Clean durable pass: cumulative journal bytes per boundary.
	cleanDir := t.TempDir()
	ffs := wal.NewFaultFS(wal.NewOSFS(cleanDir))
	c := openDurable(t, durOpts(cleanDir, ffs))
	bytesAfter := make([]int64, 0, len(steps)+1)
	w, _ := ffs.Stats()
	bytesAfter = append(bytesAfter, w)
	for _, s := range steps {
		if err := s.apply(c); err != nil {
			t.Fatal(err)
		}
		w, _ := ffs.Stats()
		bytesAfter = append(bytesAfter, w)
	}
	c.Close()

	// recover runs the workload against a fresh dir with a byte
	// budget, then reopens cleanly and returns the recovered cluster.
	recoverAt := func(budget int64, label string) *Cluster {
		dir := t.TempDir()
		crashFS := wal.NewFaultFS(wal.NewOSFS(dir))
		crashFS.CrashAfterBytes(budget)
		cc, err := OpenCluster(durOpts(dir, crashFS))
		if err != nil {
			t.Fatalf("%s: open: %v", label, err)
		}
		for _, s := range steps {
			if err := s.apply(cc); err != nil {
				break // the crash point
			}
		}
		if budget < bytesAfter[len(steps)] && !crashFS.Crashed() {
			t.Fatalf("%s: workload finished without crashing", label)
		}
		return openDurable(t, durOpts(dir, nil))
	}

	step := 1
	if testing.Short() {
		step = 7
	}
	for i := 0; i <= len(steps); i += step {
		label := fmt.Sprintf("boundary %d/%d", i, len(steps))
		r := recoverAt(bytesAfter[i], label)
		requireStateEqual(t, label, captureState(t, r), expected[i])

		// Pre-ack retry: the batch whose record JUST persisted answers
		// dup from the recovered dedup window without re-applying.
		if i > 0 && steps[i-1].kind == "batch" {
			applied, dup, err := r.InsertBatch(steps[i-1].batchID, steps[i-1].docs)
			if err != nil || !dup || applied != 0 {
				t.Fatalf("%s: persisted-batch retry: applied=%d dup=%v err=%v", label, applied, dup, err)
			}
			requireStateEqual(t, label+" after dup retry", captureState(t, r), expected[i])
		}
		// Resume: the batch that was lost in the crash applies cleanly
		// and reproduces the next reference state exactly.
		if i < len(steps) && steps[i].kind == "batch" {
			applied, dup, err := r.InsertBatch(steps[i].batchID, steps[i].docs)
			if err != nil || dup || applied != len(steps[i].docs) {
				t.Fatalf("%s: lost-batch retry: applied=%d dup=%v err=%v", label, applied, dup, err)
			}
			requireStateEqual(t, label+" after resume", captureState(t, r), expected[i+1])
		}
		r.Close()

		// Torn mid-record: a budget strictly inside the op's journal
		// bytes must recover the PRE-op state — batch atomicity for
		// inserts, split/migration atomicity for balances.
		if i < len(steps) && bytesAfter[i+1]-bytesAfter[i] >= 2 {
			mid := bytesAfter[i] + (bytesAfter[i+1]-bytesAfter[i])/2
			tl := fmt.Sprintf("torn %s @%d/%d", steps[i].kind, i, len(steps))
			r := recoverAt(mid, tl)
			requireStateEqual(t, tl, captureState(t, r), expected[i])
			r.Close()
		}
	}
}

// TestIngesterCrashConvergence: concurrent clients drive the
// group-commit batcher when the store crashes mid-flight. After
// recovery every client retries its batches under the original IDs;
// the cluster must converge on exactly-once application of the full
// set — the end-to-end contract the networked write path builds on.
func TestIngesterCrashConvergence(t *testing.T) {
	const writers, perWriter, batchDocs = 6, 10, 8

	batch := func(w, b int) (string, []*bson.Document) {
		return fmt.Sprintf("w%d/%d", w, b), ingestDocs(int64(9000+w*perWriter+b), batchDocs)
	}

	dir := t.TempDir()
	ffs := wal.NewFaultFS(wal.NewOSFS(dir))
	// Crash roughly mid-workload: a third of the clean run's bytes.
	{
		probe := t.TempDir()
		pfs := wal.NewFaultFS(wal.NewOSFS(probe))
		pc := openDurable(t, durOpts(probe, pfs))
		if err := pc.ShardCollection(hilbertDateKey()); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < writers; w++ {
			for b := 0; b < perWriter; b++ {
				id, docs := batch(w, b)
				if _, _, err := pc.InsertBatch(id, docs); err != nil {
					t.Fatal(err)
				}
			}
		}
		pc.Close()
		total, _ := pfs.Stats()
		ffs.CrashAfterBytes(total / 3)
	}

	c := openDurable(t, durOpts(dir, ffs))
	if err := c.ShardCollection(hilbertDateKey()); err != nil {
		t.Fatal(err)
	}
	in := NewIngester(c)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < perWriter; b++ {
				id, docs := batch(w, b)
				if _, _, err := insertDocs(context.Background(), in, id, docs); err != nil {
					return // the crash: this and later batches are unacked
				}
			}
		}(w)
	}
	wg.Wait()
	in.Close()

	// "Restart": reopen over the surviving bytes and retry EVERY batch
	// — acked ones dedup, torn/lost ones apply.
	r := openDurable(t, durOpts(dir, nil))
	defer r.Close()
	rin := NewIngester(r)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < perWriter; b++ {
				id, docs := batch(w, b)
				applied, dup, err := insertDocs(context.Background(), rin, id, docs)
				if err != nil {
					t.Errorf("retry %s: %v", id, err)
					return
				}
				if !dup && applied != batchDocs {
					t.Errorf("retry %s: applied=%d dup=%v", id, applied, dup)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := rin.Close(); err != nil && !errors.Is(err, ErrClosed) {
		t.Fatal(err)
	}

	// Exactly-once: the converged cluster matches a reference that
	// applied each batch once.
	ref := NewCluster(durOpts("", nil))
	if err := ref.ShardCollection(hilbertDateKey()); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for b := 0; b < perWriter; b++ {
			id, docs := batch(w, b)
			if _, _, err := ref.InsertBatch(id, docs); err != nil {
				t.Fatal(err)
			}
		}
	}
	gd, gs := r.ContentFingerprint()
	wd, ws := ref.ContentFingerprint()
	if gd != wd || gs != ws {
		t.Fatalf("converged content %d/%016x, want %d/%016x", gd, gs, wd, ws)
	}
}
