// Package sharding implements the distributed layer of the store: a
// simulated cluster of shards, the chunk mechanism (range partitions
// of the shard-key space with size-triggered splits), the balancer,
// zones, and the query router (mongos). It reproduces the behaviours
// the paper's evaluation depends on: which shards a query is routed
// to, how chunks distribute over shards with and without zones, and
// the per-shard execution statistics.
package sharding

import (
	"fmt"
	"strings"

	"repro/internal/bson"
	"repro/internal/keyenc"
)

// Strategy selects how shard-key values map onto the partitioned key
// space (Section 3.3 of the paper).
type Strategy uint8

const (
	// RangeSharding partitions by the shard-key value order, keeping
	// similar keys in the same chunk — the strategy both the baseline
	// and the Hilbert approach use.
	RangeSharding Strategy = iota
	// HashedSharding partitions by a hash of the first shard-key
	// field, scattering similar keys. Kept for the ablation that
	// shows why range sharding is essential for the Hilbert approach.
	HashedSharding
)

func (s Strategy) String() string {
	if s == HashedSharding {
		return "hashed"
	}
	return "range"
}

// ShardKey names the fields a collection is partitioned by.
type ShardKey struct {
	Fields   []string
	Strategy Strategy
}

// String renders the key like the server, e.g.
// "{hilbertIndex: 1, date: 1}".
func (k ShardKey) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, f := range k.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		if i == 0 && k.Strategy == HashedSharding {
			fmt.Fprintf(&b, "%s: hashed", f)
		} else {
			fmt.Fprintf(&b, "%s: 1", f)
		}
	}
	b.WriteByte('}')
	return b.String()
}

// Validate checks the key definition.
func (k ShardKey) Validate() error {
	if len(k.Fields) == 0 {
		return fmt.Errorf("sharding: empty shard key")
	}
	for _, f := range k.Fields {
		if f == "" {
			return fmt.Errorf("sharding: empty shard key field")
		}
	}
	return nil
}

// FieldValue returns the partitioning value of one shard-key
// component for a document: the raw value, or its hash for the first
// component under hashed sharding. Missing fields partition as null,
// like the server.
func (k ShardKey) FieldValue(i int, doc *bson.Document) any {
	v, ok := doc.Lookup(k.Fields[i])
	if !ok {
		v = nil
	}
	v = bson.Normalize(v)
	if i == 0 && k.Strategy == HashedSharding {
		return HashValue(v)
	}
	return v
}

// TupleOf returns the encoded shard-key tuple of a decoded document —
// the byte string chunk ranges are defined over. The write path routes
// on AppendTupleRaw; this is the reference it is fuzzed against.
func (k ShardKey) TupleOf(doc *bson.Document) []byte {
	var out []byte
	for i := range k.Fields {
		out = keyenc.AppendValue(out, k.FieldValue(i, doc))
	}
	return out
}

// AppendTupleRaw appends the shard-key tuple of an encoded document to
// dst: byte for byte TupleOf of the decoded form, read from the bytes
// without decoding them. Under range sharding it is the prefix of the
// document's shard-key index entry. raw must be a valid encoding.
func (k ShardKey) AppendTupleRaw(dst []byte, raw bson.Raw) []byte {
	for i, f := range k.Fields {
		// A missing field yields the zero RawValue, which encodes as
		// null — how missing fields partition.
		v, _ := raw.LookupRaw(f)
		if i == 0 && k.Strategy == HashedSharding {
			var buf [32]byte
			enc, _ := keyenc.AppendRaw(buf[:0], v)
			dst = keyenc.AppendNumber(dst, float64(hashEncoded(enc)))
			continue
		}
		dst, _ = keyenc.AppendRaw(dst, v)
	}
	return dst
}

// MinTuple returns the encoded tuple that sorts before every document
// tuple (all components MinKey).
func (k ShardKey) MinTuple() []byte {
	var out []byte
	for range k.Fields {
		out = keyenc.AppendValue(out, bson.MinKey)
	}
	return out
}

// MaxTuple returns the encoded tuple that sorts after every document
// tuple (all components MaxKey).
func (k ShardKey) MaxTuple() []byte {
	var out []byte
	for range k.Fields {
		out = keyenc.AppendValue(out, bson.MaxKey)
	}
	return out
}

// HashValue is the deterministic 64-bit hash used by hashed sharding,
// returned as an int64 partitioning value.
func HashValue(v any) int64 { return hashEncoded(keyenc.Encode(v)) }

// hashEncoded hashes a value's key encoding (FNV-1a 64).
func hashEncoded(enc []byte) int64 {
	var h uint64 = 14695981039346656037
	for _, b := range enc {
		h ^= uint64(b)
		h *= 1099511628211
	}
	// Keep the value inside float64-exact range so the numeric key
	// encoding stays order-faithful.
	h &= (1 << 52) - 1
	return int64(h)
}
