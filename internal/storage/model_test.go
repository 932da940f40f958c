package storage

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// modelStore is the obvious record store — a map and, for order, its
// sorted keys — that the paged table is held to.
type modelStore struct {
	records map[RecordID][]byte
	nextID  RecordID
	bytes   int64
}

func (m *modelStore) sortedIDs() []RecordID {
	ids := make([]RecordID, 0, len(m.records))
	for id := range m.records {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// TestStoreMatchesMapModel drives the table and the model through the
// same seeded operation stream: appends, restores at sparse and
// far-ahead ids, id-counter jumps, deletes that empty whole pages,
// single and batched fetches with missing, duplicate and out-of-range
// ids, walks with early stop, and the counters — checking every return
// value and that emptied pages are released.
func TestStoreMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		m := &modelStore{records: map[RecordID][]byte{}}
		record := func() []byte {
			raw := make([]byte, 1+rng.Intn(24))
			rng.Read(raw)
			return raw
		}
		// anyID favours ids near live ones but also returns 0, deleted,
		// never-assigned and far-out-of-range ids.
		anyID := func() RecordID {
			switch rng.Intn(10) {
			case 0:
				return RecordID(rng.Intn(3)) * (1 << 40)
			case 1:
				return m.nextID + RecordID(rng.Intn(3*pageSlots))
			}
			return RecordID(rng.Int63n(int64(m.nextID) + 2))
		}
		del := func(id RecordID) {
			raw, exists := m.records[id]
			if deleted := s.Delete(id); deleted != exists {
				t.Fatalf("seed %d: Delete(%d) = %v, model %v", seed, id, deleted, exists)
			}
			if exists {
				m.bytes -= int64(len(raw))
				delete(m.records, id)
			}
		}
		for op := 0; op < 6000; op++ {
			switch k := rng.Intn(100); {
			case k < 45:
				raw := record()
				m.nextID++
				m.records[m.nextID] = raw
				m.bytes += int64(len(raw))
				if id := s.InsertRaw(raw); id != m.nextID {
					t.Fatalf("seed %d: InsertRaw assigned %d, model %d", seed, id, m.nextID)
				}
			case k < 50:
				// Restore at a chosen id: free or taken, near or pages ahead.
				id, raw := anyID()%(m.nextID+5*pageSlots), record()
				_, taken := m.records[id]
				err := s.PutRaw(id, raw)
				if (err != nil) != (taken || id == 0) {
					t.Fatalf("seed %d: PutRaw(%d) err %v, model taken=%v", seed, id, err, taken)
				}
				if err == nil {
					m.records[id] = raw
					m.bytes += int64(len(raw))
					m.nextID = max(m.nextID, id)
				}
			case k < 52:
				// Forward jumps stick, backward ones are ignored.
				next := m.nextID/2 + RecordID(rng.Intn(2*pageSlots))
				s.SetNextID(next)
				m.nextID = max(m.nextID, next)
			case k < 70:
				del(anyID())
			case k < 72:
				// Empty a whole page's worth of ids.
				base := anyID() / pageSlots * pageSlots
				for id := base; id <= base+pageSlots; id++ {
					del(id)
				}
			case k < 85:
				id := anyID()
				raw, ok := s.FetchRaw(id)
				if w, wok := m.records[id]; ok != wok || ok && &raw[0] != &w[0] {
					t.Fatalf("seed %d: FetchRaw(%d) = %x,%v, model %x,%v", seed, id, raw, ok, w, wok)
				}
			case k < 95:
				ids := make([]RecordID, rng.Intn(40))
				for i := range ids {
					if ids[i] = anyID(); i > 0 && rng.Intn(4) == 0 {
						ids[i] = ids[i-1] // duplicates
					}
				}
				out := make([][]byte, len(ids)+2)
				out[len(ids)] = []byte("untouched")
				s.FetchRawBatch(ids, out)
				for i, id := range ids {
					if w, ok := m.records[id]; ok != (out[i] != nil) || ok && &out[i][0] != &w[0] {
						t.Fatalf("seed %d: FetchRawBatch[%d] (id %d) = %x, model %x,%v", seed, i, id, out[i], w, ok)
					}
				}
				if string(out[len(ids)]) != "untouched" {
					t.Fatalf("seed %d: FetchRawBatch wrote past len(ids)", seed)
				}
			default:
				ids := m.sortedIDs()
				stopAfter := rng.Intn(len(ids) + 2) // may exceed: full walk
				var walked []RecordID
				s.Walk(func(id RecordID, raw []byte) bool {
					if w := m.records[id]; len(w) == 0 || &raw[0] != &w[0] {
						t.Fatalf("seed %d: Walk handed %x for id %d, model %x", seed, raw, id, w)
					}
					walked = append(walked, id)
					return len(walked) < stopAfter
				})
				if w := ids[:min(max(stopAfter, 1), len(ids))]; !slices.Equal(walked, w) {
					t.Fatalf("seed %d: Walk (stop after %d) visited %d ids, model %d", seed, stopAfter, len(walked), len(w))
				}
			}
			if s.Len() != len(m.records) || s.Bytes() != m.bytes || s.NextID() != m.nextID {
				t.Fatalf("seed %d op %d: Len/Bytes/NextID = %d/%d/%d, model %d/%d/%d",
					seed, op, s.Len(), s.Bytes(), s.NextID(), len(m.records), m.bytes, m.nextID)
			}
		}
		// A page is allocated exactly when it holds a live record.
		livePages := map[int]bool{}
		for id := range m.records {
			livePages[int((id-1)/pageSlots)] = true
		}
		for pi, p := range s.pages {
			if (p != nil) != livePages[pi] {
				t.Fatalf("seed %d: page %d allocated=%v, holds live records=%v", seed, pi, p != nil, livePages[pi])
			}
		}
	}
}

// TestBatchAndWalkRaceWriter runs batched fetches and walks beside one
// writer that inserts, deletes and empties pages (meant for -race): a
// reader must only ever see a record's own bytes or nothing.
func TestBatchAndWalkRaceWriter(t *testing.T) {
	s := NewStore()
	rec := func(id RecordID) []byte { return []byte{byte(id), byte(id >> 8), byte(id >> 16)} }
	const seeded = 3 * pageSlots
	for id := RecordID(1); id <= seeded; id++ {
		s.InsertRaw(rec(id))
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			ids, out := make([]RecordID, 32), make([][]byte, 32)
			for !stop.Load() {
				for i := range ids {
					ids[i] = RecordID(rng.Intn(seeded + 2*pageSlots))
				}
				s.FetchRawBatch(ids, out)
				for i, raw := range out {
					if raw != nil && string(raw) != string(rec(ids[i])) {
						t.Errorf("FetchRawBatch returned %x for id %d", raw, ids[i])
						return
					}
				}
				var prev RecordID
				s.Walk(func(id RecordID, raw []byte) bool {
					if id <= prev || string(raw) != string(rec(id)) {
						t.Errorf("Walk visited id %d (after %d) with %x", id, prev, raw)
						return false
					}
					prev = id
					return id < RecordID(rng.Intn(seeded))
				})
			}
		}(r)
	}
	for id := RecordID(1); id <= seeded; id++ { // empties pages front to back
		s.Delete(id)
		if id%3 == 0 {
			s.InsertRaw(rec(s.NextID() + 1))
		}
	}
	stop.Store(true)
	wg.Wait()
	if want := seeded / 3; s.Len() != want {
		t.Fatalf("Len = %d, want %d", s.Len(), want)
	}
}
