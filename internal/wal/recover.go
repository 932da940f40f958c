package wal

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

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

	// TornTail reports whether any journal bytes were discarded — a
	// torn/corrupt frame or records beyond the first LSN gap.
	TornTail bool
}

// scannedFile is one journal file's valid frames plus the byte offset
// at which each frame ends, so the tail beyond a chosen LSN cutoff
// can be truncated precisely.
type scannedFile struct {
	name     string
	recs     []Record
	ends     []int64 // ends[i] = offset just past recs[i]'s frame
	validEnd int64
	torn     bool
}

func scanFile(fs FS, name string) (scannedFile, error) {
	sf := scannedFile{name: name}
	data, err := fs.ReadFile(name)
	if err != nil {
		return sf, nil // absent file = empty journal
	}
	var off int64
	for int(off) < len(data) {
		rec, size, ok := decodeFrame(data[off:])
		if !ok {
			sf.torn = true
			break
		}
		rec.Body = append([]byte(nil), rec.Body...)
		off += int64(size)
		sf.recs = append(sf.recs, rec)
		sf.ends = append(sf.ends, off)
	}
	sf.validEnd = off
	return sf, nil
}

// Recover scans every "*.wal" journal in the store directory together
// with the snapshots, reassembles the journal records into global LSN
// order, and keeps the longest strictly consecutive run above the
// snapshot's LSN. Records at or below the snapshot LSN are skipped —
// that is what makes replay idempotent when a crash hit between
// writing a checkpoint and resetting the journals.
//
// When truncate is true the journal files are also cut back on disk:
// torn tails go, and so do frames beyond the chosen cutoff in *other*
// files (a record is only replayable if every earlier record
// survived, so anything past the first gap is unreachable and must
// not linger once the writer continues at NextLSN).
func Recover(fs FS, truncate bool) (*RecoverResult, error) {
	res := &RecoverResult{}
	snapLSN, payload, ok, err := LatestSnapshot(fs)
	if err != nil {
		return nil, err
	}
	if ok {
		res.HasSnapshot = true
		res.SnapshotLSN = snapLSN
		res.SnapshotPayload = payload
	}

	names, err := fs.List(".")
	if err != nil {
		return nil, err
	}
	var files []scannedFile
	var all []Record
	for _, n := range names {
		if !strings.HasSuffix(n, ".wal") {
			continue
		}
		sf, err := scanFile(fs, n)
		if err != nil {
			return nil, err
		}
		if sf.torn {
			res.TornTail = true
		}
		files = append(files, sf)
		all = append(all, sf.recs...)
	}

	slices.SortStableFunc(all, func(a, b Record) int { return cmp.Compare(a.LSN, b.LSN) })
	cutoff := res.SnapshotLSN
	for _, rec := range all {
		if rec.LSN <= cutoff {
			continue // already covered by the snapshot (or a duplicate)
		}
		if rec.LSN != cutoff+1 {
			res.TornTail = true // gap: a sibling journal lost its tail
			break
		}
		res.Records = append(res.Records, rec)
		cutoff = rec.LSN
	}
	res.NextLSN = cutoff + 1

	if truncate {
		for _, sf := range files {
			// Keep the frames up to the first one beyond the cutoff
			// (frames within a file are appended in LSN order).
			end := sf.validEnd
			for i, rec := range sf.recs {
				if rec.LSN > cutoff {
					if i == 0 {
						end = 0
					} else {
						end = sf.ends[i-1]
					}
					break
				}
			}
			size, serr := fs.Size(sf.name)
			if serr != nil {
				continue // absent file: nothing to truncate
			}
			if end < size {
				if err := fs.Truncate(sf.name, end); err != nil {
					return nil, fmt.Errorf("wal: truncating %s: %w", sf.name, err)
				}
			}
		}
	}
	return res, nil
}
