package storage

import (
	"sync"
	"testing"

	"repro/internal/bson"
)

// TestConcurrentFetchCounters exercises the store under the load the
// parallel router generates: many goroutines fetching while others
// insert and delete (meant for -race), after which the byte counter
// must agree with the live set.
func TestConcurrentFetchCounters(t *testing.T) {
	s := NewStore()
	const seed = 200
	ids := make([]RecordID, seed)
	for i := 0; i < seed; i++ {
		doc := bson.FromD(bson.D{{Key: "_id", Value: int64(i)}, {Key: "v", Value: int64(i * i)}})
		ids[i] = s.InsertRaw(bson.Marshal(doc))
	}

	const readers = 6
	const writers = 2
	const iters = 300
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := ids[(r*iters+i)%seed]
				if i%2 == 0 {
					if _, ok := s.FetchRaw(id); !ok {
						// Concurrently deleted: legal outcome.
						continue
					}
				} else if raw, ok := s.FetchRaw(id); ok {
					doc, err := bson.Unmarshal(raw)
					if err != nil {
						t.Errorf("stored document does not decode: %v", err)
						return
					}
					if _, ok := doc.Lookup("v"); !ok {
						t.Errorf("fetched document missing field v")
						return
					}
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters/4; i++ {
				doc := bson.FromD(bson.D{{Key: "_id", Value: int64(1000*w + i)}})
				id := s.InsertRaw(bson.Marshal(doc))
				if i%3 == 0 {
					s.Delete(id)
				}
				s.Len()
				s.Bytes()
			}
		}(w)
	}
	wg.Wait()

	// The byte counter must agree with a fresh walk of the live set.
	var walked int64
	s.Walk(func(_ RecordID, raw []byte) bool {
		walked += int64(len(raw))
		return true
	})
	if got := s.Bytes(); got != walked {
		t.Fatalf("Bytes() = %d, walk sums %d", got, walked)
	}
}

// TestWalkIsOrderedAndDeterministic pins Walk's RecordID-order
// contract, the base of the executor's deterministic collection
// scans.
func TestWalkIsOrderedAndDeterministic(t *testing.T) {
	s := NewStore()
	const n = 500
	for i := 0; i < n; i++ {
		s.InsertRaw(bson.Marshal(bson.FromD(bson.D{{Key: "_id", Value: int64(i)}})))
	}
	// Punch holes so ordering is tested on a sparse id space.
	for id := RecordID(5); id <= n; id += 7 {
		s.Delete(id)
	}
	var prev RecordID
	count := 0
	s.Walk(func(id RecordID, _ []byte) bool {
		if id <= prev {
			t.Fatalf("walk out of order: %d after %d", id, prev)
		}
		prev = id
		count++
		return true
	})
	if count != s.Len() {
		t.Fatalf("walk visited %d records, Len() = %d", count, s.Len())
	}
}
