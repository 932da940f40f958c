package storage

import (
	"math/rand"
	"testing"

	"repro/internal/bson"
)

func TestCompressedBytesRepetitiveDataCompressesWell(t *testing.T) {
	s := NewStore()
	for i := int64(0); i < 2000; i++ {
		doc := bson.FromD(bson.D{
			{Key: "_id", Value: i},
			{Key: "roadType", Value: "residential"},
			{Key: "weatherCondition", Value: "clear"},
			{Key: "vehicle", Value: "GRC-1234"},
		})
		s.InsertRaw(bson.Marshal(doc))
	}
	comp := s.CompressedBytes()
	if comp <= 0 {
		t.Fatal("compressed size <= 0")
	}
	if comp >= s.Bytes()/2 {
		t.Fatalf("repetitive data compressed to %d of %d raw bytes", comp, s.Bytes())
	}
}

func TestCompressedBytesRandomDataBarelyCompresses(t *testing.T) {
	s := NewStore()
	rng := rand.New(rand.NewSource(9))
	buf := make([]byte, 200)
	for i := int64(0); i < 500; i++ {
		rng.Read(buf)
		doc := bson.FromD(bson.D{
			{Key: "_id", Value: i},
			{Key: "blob", Value: string(buf)},
		})
		s.InsertRaw(bson.Marshal(doc))
	}
	comp := s.CompressedBytes()
	if comp < s.Bytes()*5/10 {
		t.Fatalf("random data compressed suspiciously well: %d of %d", comp, s.Bytes())
	}
}

func TestCompressedBytesEmptyStore(t *testing.T) {
	if got := NewStore().CompressedBytes(); got != 0 {
		t.Fatalf("empty store compressed size = %d", got)
	}
}
