package bson

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"
)

// ObjectID is the 12-byte document identifier used for the _id field:
// a 4-byte big-endian timestamp, a 5-byte process-random value and a
// 3-byte incrementing counter initialised to a random value — the
// layout described in Section 3.1 of the paper.
type ObjectID [12]byte

// objectIDGen produces deterministic ObjectIDs for a reproducible run.
// The store is a simulator, so instead of crypto randomness the
// "random" parts are seeded; this keeps experiment output stable
// across runs while preserving the structural properties that matter
// (shared timestamp prefixes between documents inserted close in
// time, which drive the _id-index prefix-compression behaviour of
// Fig. 14).
type objectIDGen struct {
	random  [5]byte
	counter atomic.Uint32
}

// NewObjectIDGen returns a generator whose random section and counter
// start are derived from seed.
func NewObjectIDGen(seed uint64) *ObjectIDGen {
	g := &ObjectIDGen{}
	s := splitmix64(seed)
	for i := 0; i < 5; i++ {
		g.gen.random[i] = byte(s >> (8 * uint(i)))
	}
	g.gen.counter.Store(uint32(splitmix64(s) & 0xFFFFFF))
	return g
}

// ObjectIDGen generates ObjectIDs with a fixed random section.
type ObjectIDGen struct {
	gen objectIDGen
}

// New returns the next ObjectID stamped with the given time.
func (g *ObjectIDGen) New(at time.Time) ObjectID {
	var id ObjectID
	binary.BigEndian.PutUint32(id[0:4], uint32(at.Unix()))
	copy(id[4:9], g.gen.random[:])
	c := g.gen.counter.Add(1)
	id[9] = byte(c >> 16)
	id[10] = byte(c >> 8)
	id[11] = byte(c)
	return id
}

// Hex returns the usual lowercase hex form of the id.
func (o ObjectID) Hex() string { return hex.EncodeToString(o[:]) }

// ObjectIDFromHex parses a 24-character hex string into an ObjectID.
func ObjectIDFromHex(s string) (ObjectID, error) {
	var id ObjectID
	if len(s) != 24 {
		return id, fmt.Errorf("bson: invalid ObjectID hex length %d", len(s))
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("bson: invalid ObjectID hex: %w", err)
	}
	copy(id[:], b)
	return id, nil
}

// splitmix64 is the SplitMix64 mixing function, used wherever the
// simulator needs cheap deterministic pseudo-randomness.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
