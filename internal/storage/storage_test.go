package storage

import (
	"sync"
	"testing"

	"repro/internal/bson"
)

func doc(i int64) *bson.Document {
	return bson.FromD(bson.D{{Key: "_id", Value: i}, {Key: "v", Value: i * 10}})
}

func TestInsertFetchDelete(t *testing.T) {
	s := NewStore()
	id1 := s.InsertRaw(bson.Marshal(doc(1)))
	id2 := s.InsertRaw(bson.Marshal(doc(2)))
	if id1 == id2 {
		t.Fatal("duplicate record ids")
	}
	raw, ok := s.FetchRaw(id2)
	if !ok {
		t.Fatal("FetchRaw of a live record failed")
	}
	got, err := bson.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Get("v") != int64(20) {
		t.Fatalf("fetched %v", got)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.Delete(id1) {
		t.Fatal("Delete = false")
	}
	if s.Delete(id1) {
		t.Fatal("double Delete = true")
	}
	if _, ok := s.FetchRaw(id1); ok {
		t.Fatal("FetchRaw of deleted record succeeded")
	}
	if s.Len() != 1 {
		t.Fatalf("Len after delete = %d", s.Len())
	}
}

func TestBytesAccounting(t *testing.T) {
	s := NewStore()
	d := doc(1)
	want := int64(len(bson.Marshal(d)))
	id := s.InsertRaw(bson.Marshal(d))
	if s.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", s.Bytes(), want)
	}
	s.InsertRaw(bson.Marshal(doc(2)))
	s.Delete(id)
	if s.Bytes() != want { // doc(2) is the same size
		t.Fatalf("Bytes after delete = %d, want %d", s.Bytes(), want)
	}
}

func TestIDsNeverReused(t *testing.T) {
	s := NewStore()
	id1 := s.InsertRaw(bson.Marshal(doc(1)))
	s.Delete(id1)
	id2 := s.InsertRaw(bson.Marshal(doc(2)))
	if id2 == id1 {
		t.Fatal("record id reused after delete")
	}
}

func TestWalkVisitsAllAndStopsEarly(t *testing.T) {
	s := NewStore()
	for i := int64(0); i < 50; i++ {
		s.InsertRaw(bson.Marshal(doc(i)))
	}
	seen := 0
	s.Walk(func(id RecordID, raw []byte) bool {
		seen++
		return true
	})
	if seen != 50 {
		t.Fatalf("walk visited %d", seen)
	}
	seen = 0
	s.Walk(func(id RecordID, raw []byte) bool {
		seen++
		return seen < 10
	})
	if seen != 10 {
		t.Fatalf("early-stop walk visited %d", seen)
	}
}

func TestFetchRaw(t *testing.T) {
	s := NewStore()
	d := doc(7)
	id := s.InsertRaw(bson.Marshal(d))
	raw, ok := s.FetchRaw(id)
	if !ok {
		t.Fatal("FetchRaw missed")
	}
	back, err := bson.Unmarshal(raw)
	if err != nil || bson.Compare(back, d) != 0 {
		t.Fatalf("raw round trip: %v %v", back, err)
	}
	if _, ok := s.FetchRaw(9999); ok {
		t.Fatal("FetchRaw of absent id succeeded")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var ids []RecordID
			for i := 0; i < 200; i++ {
				ids = append(ids, s.InsertRaw(bson.Marshal(doc(int64(g*1000+i)))))
			}
			for _, id := range ids[:100] {
				if _, ok := s.FetchRaw(id); !ok {
					t.Errorf("FetchRaw(%d) of a live record failed", id)
					return
				}
				s.Delete(id)
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 8*100 {
		t.Fatalf("Len = %d, want 800", s.Len())
	}
}
