package wal

import "fmt"

// RecoverResult is what a store directory yields after crash
// recovery: the newest usable snapshot plus the longest consistent
// run of journaled operations after it.
type RecoverResult struct {
	// SnapshotLSN and SnapshotPayload describe the newest valid
	// snapshot; HasSnapshot is false for a journal-only directory.
	SnapshotLSN     uint64
	SnapshotPayload []byte
	HasSnapshot     bool

	// Records are the journal records to replay on top of the
	// snapshot: LSN > SnapshotLSN, strictly consecutive, in order.
	Records []Record

	// NextLSN is the sequence number the journal writer continues at.
	NextLSN uint64

	// TornTail reports whether the journal holds bytes past the last
	// replayable record — a torn or corrupt frame, or frames beyond an
	// LSN gap. TruncateTail removes them.
	TornTail bool

	journal string
	keep    int64 // byte length of the journal up to the last replayable record
}

// Recover reads the newest snapshot and the one journal file of a store
// directory and keeps the journal's longest replayable prefix: frames
// are taken in file order up to the first torn or corrupt one, records
// at or below the snapshot LSN are skipped — that is what makes replay
// idempotent when a crash hit between writing a checkpoint and
// resetting the journal — and the run ends at the first record that
// does not continue the sequence (the writer assigns consecutive LSNs,
// so a gap inside the file is a corrupt tail like any other).
//
// Recover changes nothing on disk. Once the caller has accepted the
// records it calls TruncateTail, so the writer continues at NextLSN on
// a file that ends at the last replayed frame.
func Recover(fs FS, journal string) (*RecoverResult, error) {
	res := &RecoverResult{journal: journal}
	var err error
	res.SnapshotLSN, res.SnapshotPayload, res.HasSnapshot, err = LatestSnapshot(fs)
	if err != nil {
		return nil, err
	}
	recs, info, err := ScanJournal(fs, journal)
	if err != nil {
		return nil, err
	}
	res.TornTail = info.Truncated
	res.keep = info.ValidSize
	last := res.SnapshotLSN
	var off int64
	for _, rec := range recs {
		if rec.LSN > res.SnapshotLSN {
			if rec.LSN != last+1 {
				res.TornTail = true
				res.keep = off
				break
			}
			res.Records = append(res.Records, rec)
			last = rec.LSN
		}
		off += int64(FrameSize(rec))
	}
	res.NextLSN = last + 1
	return res, nil
}

// TruncateTail cuts the journal file back to the replayable prefix
// Recover found; a journal without a torn tail is left alone.
func (r *RecoverResult) TruncateTail(fs FS) error {
	if !r.TornTail {
		return nil
	}
	if err := fs.Truncate(r.journal, r.keep); err != nil {
		return fmt.Errorf("wal: truncating %s: %w", r.journal, err)
	}
	return nil
}
