package storage

import (
	"compress/flate"
	"io"
)

// blockSize models the storage engine's leaf page: documents are
// compressed in blocks of roughly this size, like WiredTiger's block
// compression of collection data.
const blockSize = 32 << 10

// sampleBudget caps how many bytes CompressedBytes actually runs
// through the compressor; beyond it the measured ratio extrapolates.
const sampleBudget = 4 << 20

// CompressedBytes estimates the on-disk size of the store under
// block compression (flate standing in for the snappy compression the
// server applies to collections). Documents are grouped into
// page-sized blocks in record-id order — insertion order, as the
// engine lays them out — each block is compressed, and when the store
// exceeds the sampling budget the observed ratio extrapolates to the
// full data size. The Table 6 experiment reports both raw and
// compressed sizes.
func (s *Store) CompressedBytes() int64 {
	var (
		block      []byte
		sampledIn  int64
		sampledOut int64
	)
	flush := func() {
		if len(block) == 0 {
			return
		}
		sampledIn += int64(len(block))
		sampledOut += deflateLen(block)
		block = block[:0]
	}
	s.Walk(func(_ RecordID, raw []byte) bool {
		block = append(block, raw...)
		if len(block) >= blockSize {
			flush()
		}
		return sampledIn < sampleBudget
	})
	flush()
	if sampledIn == 0 {
		return 0
	}
	ratio := float64(sampledOut) / float64(sampledIn)
	return int64(ratio * float64(s.bytes.Load()))
}

// deflateLen returns the deflate-compressed length of b.
func deflateLen(b []byte) int64 {
	var n countingWriter
	w, err := flate.NewWriter(&n, flate.BestSpeed)
	if err != nil {
		return int64(len(b)) // cannot happen with a valid level
	}
	if _, err := w.Write(b); err != nil {
		return int64(len(b))
	}
	if err := w.Close(); err != nil {
		return int64(len(b))
	}
	return int64(n)
}

// countingWriter discards its input and counts the bytes.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

var _ io.Writer = (*countingWriter)(nil)
