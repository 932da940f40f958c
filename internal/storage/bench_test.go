package storage

import (
	"math/rand"
	"testing"
)

// The record store's read micro-benchmarks: what looking up one
// examined document costs, one at a time and in the executor's batches.
//
//	go test ./internal/storage -run '^$' -bench FetchRaw -benchmem

// benchStore fills a store with n fleet-sized (460 B) records — 44 MiB
// at 100 k, larger than any cache level here — and returns probes
// random ids over it.
func benchStore(n, probes int) (*Store, []RecordID) {
	s := NewStore()
	for i := 0; i < n; i++ {
		raw := make([]byte, 460)
		raw[0] = byte(i)
		s.InsertRaw(raw)
	}
	rng := rand.New(rand.NewSource(1))
	ids := make([]RecordID, probes)
	for i := range ids {
		ids[i] = RecordID(1 + rng.Intn(n))
	}
	return s, ids
}

var benchSink byte

// BenchmarkFetchRaw looks up 10 k random ids of a 100 k-record store one
// call at a time and touches each record's first byte, the way the
// one-document-at-a-time executor did.
func BenchmarkFetchRaw(b *testing.B) {
	s, ids := benchStore(100_000, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, ok := s.FetchRaw(ids[i%len(ids)])
		if !ok {
			b.Fatal("missing record")
		}
		benchSink += raw[0]
	}
}

// BenchmarkFetchRawBatch is the same lookup the way the executor does
// it now: 32 ids per lock acquisition, then a touch of every record.
// Reported per document.
func BenchmarkFetchRawBatch(b *testing.B) {
	s, ids := benchStore(100_000, 10_000)
	const batch = 32
	var out [batch][]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		at := i % (len(ids) - batch)
		s.FetchRawBatch(ids[at:at+batch], out[:])
		for _, raw := range out {
			benchSink += raw[0]
		}
	}
}
