package wal

import (
	"bytes"
	"fmt"
	"testing"
)

func testRecords(n int, startLSN uint64) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			LSN:  startLSN + uint64(i),
			Op:   uint8(1 + i%5),
			Body: []byte(fmt.Sprintf("body-%d", i)),
		}
	}
	return recs
}

func writeJournal(t *testing.T, fs FS, name string, recs []Record, opts JournalOptions) {
	t.Helper()
	j, err := OpenJournal(fs, name, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		j.Append(rec)
		if err := j.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	recs := testRecords(20, 1)
	var buf []byte
	for _, rec := range recs {
		buf = AppendFrame(buf, rec)
	}
	off := 0
	for i, want := range recs {
		got, size, ok := decodeFrame(buf[off:])
		if !ok {
			t.Fatalf("frame %d: decode failed", i)
		}
		if got.LSN != want.LSN || got.Op != want.Op || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
		if size != FrameSize(want) {
			t.Fatalf("frame %d: size %d want %d", i, size, FrameSize(want))
		}
		off += size
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

func TestScanJournalTruncatesTornTail(t *testing.T) {
	fs := NewOSFS(t.TempDir())
	recs := testRecords(10, 1)
	writeJournal(t, fs, "j.wal", recs, JournalOptions{Sync: SyncAlways})

	data, err := fs.ReadFile("j.wal")
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-way through the last frame.
	torn := data[:len(data)-3]
	if err := fs.WriteFile("j.wal", torn); err != nil {
		t.Fatal(err)
	}
	got, info, err := ScanJournal(fs, "j.wal")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Truncated {
		t.Fatal("expected torn tail")
	}
	if len(got) != len(recs)-1 {
		t.Fatalf("got %d records, want %d", len(got), len(recs)-1)
	}
	// Recovery cuts the torn frame and keeps every complete one.
	res, err := Recover(fs, "j.wal")
	if err != nil {
		t.Fatal(err)
	}
	if !res.TornTail || len(res.Records) != len(recs)-1 {
		t.Fatalf("Recover: torn=%v records=%d; want true, %d", res.TornTail, len(res.Records), len(recs)-1)
	}
	if err := res.TruncateTail(fs); err != nil {
		t.Fatal(err)
	}
	if size, _ := fs.Size("j.wal"); size != info.ValidSize {
		t.Fatalf("journal holds %d bytes after TruncateTail, want the valid prefix's %d", size, info.ValidSize)
	}
	if _, info, _ := ScanJournal(fs, "j.wal"); info.Truncated {
		t.Fatal("journal still torn after TruncateTail")
	}
}

func TestScanJournalStopsAtBitFlip(t *testing.T) {
	fs := NewOSFS(t.TempDir())
	recs := testRecords(8, 1)
	writeJournal(t, fs, "j.wal", recs, JournalOptions{Sync: SyncAlways})

	// Flip one bit inside the body of the 5th frame: the scan must
	// keep exactly the 4 frames before it.
	var off int64
	for _, rec := range recs[:4] {
		off += int64(FrameSize(rec))
	}
	ffs := NewFaultFS(fs)
	if err := ffs.FlipBit("j.wal", off+int64(frameHeaderSize+frameFixedSize), 3); err != nil {
		t.Fatal(err)
	}
	got, info, err := ScanJournal(fs, "j.wal")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Truncated || len(got) != 4 {
		t.Fatalf("got %d records (truncated=%v), want 4 truncated", len(got), info.Truncated)
	}
}

func TestGroupCommitSyncPolicies(t *testing.T) {
	mk := func(policy SyncPolicy, batch int) (int, int64) {
		fs := NewFaultFS(NewOSFS(t.TempDir()))
		j, err := OpenJournal(fs, "j.wal", JournalOptions{Sync: policy, BatchBytes: batch})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range testRecords(50, 1) {
			j.Append(rec)
			if err := j.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		_, syncsBeforeClose := fs.Stats()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		size, err := fs.Size("j.wal")
		if err != nil {
			t.Fatal(err)
		}
		return syncsBeforeClose, size
	}

	alwaysSyncs, _ := mk(SyncAlways, 0)
	if alwaysSyncs != 50 {
		t.Fatalf("SyncAlways: %d syncs, want 50", alwaysSyncs)
	}
	neverSyncs, _ := mk(SyncNever, 0)
	if neverSyncs != 0 {
		t.Fatalf("SyncNever: %d syncs before close, want 0", neverSyncs)
	}
	// A batch threshold of 64 bytes groups a few ~25-byte frames per
	// fsync: strictly fewer syncs than commits, more than zero.
	batchSyncs, _ := mk(SyncBatch, 64)
	if batchSyncs == 0 || batchSyncs >= 50 {
		t.Fatalf("SyncBatch: %d syncs, want 0 < n < 50", batchSyncs)
	}
}

func TestSnapshotRoundTripAndFallback(t *testing.T) {
	fs := NewOSFS(t.TempDir())
	if err := WriteSnapshot(fs, 10, []byte("state-at-10")); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(fs, 20, []byte("state-at-20")); err != nil {
		t.Fatal(err)
	}
	lsn, payload, ok, err := LatestSnapshot(fs)
	if err != nil || !ok {
		t.Fatalf("LatestSnapshot: ok=%v err=%v", ok, err)
	}
	if lsn != 20 || string(payload) != "state-at-20" {
		t.Fatalf("got lsn=%d payload=%q", lsn, payload)
	}

	// Corrupt the newest snapshot: recovery falls back to the older.
	ffs := NewFaultFS(fs)
	if err := ffs.FlipBit("snap-0000000000000014.ckpt", 30, 1); err != nil {
		t.Fatal(err)
	}
	lsn, payload, ok, err = LatestSnapshot(fs)
	if err != nil || !ok {
		t.Fatalf("LatestSnapshot after corruption: ok=%v err=%v", ok, err)
	}
	if lsn != 10 || string(payload) != "state-at-10" {
		t.Fatalf("fallback got lsn=%d payload=%q", lsn, payload)
	}

	if err := RemoveSnapshotsBelow(fs, 20); err != nil {
		t.Fatal(err)
	}
	names, _ := snapshotNames(fs)
	if len(names) != 1 || names[0] != snapName(20) {
		t.Fatalf("after prune: %v", names)
	}
}

func TestRecoverReadsTheOneJournalInOrder(t *testing.T) {
	fs := NewOSFS(t.TempDir())
	writeJournal(t, fs, "journal.wal", testRecords(12, 1), JournalOptions{Sync: SyncAlways})
	// A second *.wal in the directory is not the store's journal:
	// recovery reads exactly the file it was given.
	writeJournal(t, fs, "other.wal", testRecords(3, 13), JournalOptions{Sync: SyncAlways})

	res, err := Recover(fs, "journal.wal")
	if err != nil {
		t.Fatal(err)
	}
	if res.HasSnapshot || res.TornTail {
		t.Fatalf("unexpected snapshot/torn: %+v", res)
	}
	if len(res.Records) != 12 || res.NextLSN != 13 {
		t.Fatalf("got %d records, next %d", len(res.Records), res.NextLSN)
	}
	for i, rec := range res.Records {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, rec.LSN)
		}
	}
}

// A gap inside the file is a corrupt tail: recovery keeps LSN 1..3,
// drops everything from the record that skips ahead, and changes the
// file only when TruncateTail is called.
func TestRecoverStopsAtGapAndTruncatesTail(t *testing.T) {
	fs := NewOSFS(t.TempDir())
	r := testRecords(7, 1)
	writeJournal(t, fs, "journal.wal", []Record{r[0], r[1], r[2], r[4], r[5], r[6]}, JournalOptions{Sync: SyncAlways})
	full, err := fs.Size("journal.wal")
	if err != nil {
		t.Fatal(err)
	}

	res, err := Recover(fs, "journal.wal")
	if err != nil {
		t.Fatal(err)
	}
	if !res.TornTail {
		t.Fatal("expected TornTail")
	}
	if len(res.Records) != 3 || res.NextLSN != 4 {
		t.Fatalf("got %d records, next %d; want 3, 4", len(res.Records), res.NextLSN)
	}
	if size, _ := fs.Size("journal.wal"); size != full {
		t.Fatalf("Recover changed the journal: %d bytes, was %d", size, full)
	}
	if err := res.TruncateTail(fs); err != nil {
		t.Fatal(err)
	}
	recs, info, err := ScanJournal(fs, "journal.wal")
	if err != nil || info.Truncated {
		t.Fatalf("after truncate: err=%v truncated=%v", err, info.Truncated)
	}
	if len(recs) != 3 || recs[2].LSN != 3 {
		t.Fatalf("after truncate: %d records, last LSN %d; want 3, 3", len(recs), recs[len(recs)-1].LSN)
	}
	// A bit flip is the same tail by another cause: the frame of LSN 2
	// stops the scan, LSN 3 behind it is unreachable.
	ffs := NewFaultFS(fs)
	if err := ffs.FlipBit("journal.wal", int64(FrameSize(r[0]))+frameHeaderSize+2, 0); err != nil {
		t.Fatal(err)
	}
	res, err = Recover(fs, "journal.wal")
	if err != nil {
		t.Fatal(err)
	}
	if !res.TornTail || len(res.Records) != 1 || res.NextLSN != 2 {
		t.Fatalf("bit flip: torn=%v records=%d next=%d; want true, 1, 2", res.TornTail, len(res.Records), res.NextLSN)
	}
	if err := res.TruncateTail(fs); err != nil {
		t.Fatal(err)
	}
	if size, _ := fs.Size("journal.wal"); size != int64(FrameSize(r[0])) {
		t.Fatalf("journal holds %d bytes after truncate, want the first frame's %d", size, FrameSize(r[0]))
	}
}

func TestRecoverSkipsRecordsCoveredBySnapshot(t *testing.T) {
	fs := NewOSFS(t.TempDir())
	// Journal holds LSN 1..10; snapshot covers through 7 but the
	// journal was never reset (crash between checkpoint and reset).
	writeJournal(t, fs, "journal.wal", testRecords(10, 1), JournalOptions{Sync: SyncAlways})
	if err := WriteSnapshot(fs, 7, []byte("snap")); err != nil {
		t.Fatal(err)
	}
	res, err := Recover(fs, "journal.wal")
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasSnapshot || res.SnapshotLSN != 7 {
		t.Fatalf("snapshot: %+v", res)
	}
	if len(res.Records) != 3 || res.Records[0].LSN != 8 || res.NextLSN != 11 {
		t.Fatalf("records %d first %d next %d", len(res.Records), res.Records[0].LSN, res.NextLSN)
	}
}

func TestJournalResetAfterCheckpoint(t *testing.T) {
	fs := NewOSFS(t.TempDir())
	j, err := OpenJournal(fs, "journal.wal", JournalOptions{Sync: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range testRecords(5, 1) {
		j.Append(rec)
		if err := j.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Reset(); err != nil {
		t.Fatal(err)
	}
	if size, _ := fs.Size("journal.wal"); size != 0 {
		t.Fatalf("journal size after reset: %d", size)
	}
	// The writer keeps working after a reset, continuing the LSN run.
	for _, rec := range testRecords(2, 6) {
		j.Append(rec)
		if err := j.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, info, err := ScanJournal(fs, "journal.wal")
	if err != nil || info.Truncated {
		t.Fatalf("scan: err=%v info=%+v", err, info)
	}
	if len(recs) != 2 || recs[0].LSN != 6 {
		t.Fatalf("got %d records, first LSN %d", len(recs), recs[0].LSN)
	}
}
