// Package index implements the secondary-index layer: single-field
// and compound B-tree indexes, plus the 2dsphere variant that indexes
// a GeoJSON point field through its geohash value (Section 3.2 of the
// paper). Every index maps an order-preserving encoded key — the
// concatenated field encodings followed by the record id for
// uniqueness — to the record id of the document.
package index

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/bson"
	"repro/internal/btree"
	"repro/internal/geo"
	"repro/internal/geohash"
	"repro/internal/keyenc"
	"repro/internal/storage"
)

// FieldKind selects how a field participates in an index.
type FieldKind uint8

const (
	// Ascending indexes the field's value directly (a standard B-tree
	// component; the store does not need descending components).
	Ascending FieldKind = iota
	// Geo2DSphere indexes a GeoJSON point field by its geohash value.
	Geo2DSphere
)

// Field is one component of an index definition.
type Field struct {
	Name string
	Kind FieldKind
}

// Definition describes an index.
type Definition struct {
	Name   string
	Fields []Field
	// GeoBits is the geohash precision of Geo2DSphere components
	// (default geohash.DefaultBits = 26, the server default).
	GeoBits uint
}

// String renders the definition like the server's index spec, e.g.
// "{location: 2dsphere, date: 1}".
func (d Definition) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, f := range d.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		if f.Kind == Geo2DSphere {
			fmt.Fprintf(&b, "%s: 2dsphere", f.Name)
		} else {
			fmt.Fprintf(&b, "%s: 1", f.Name)
		}
	}
	b.WriteByte('}')
	return b.String()
}

// geoBits returns the effective geohash precision.
func (d Definition) geoBits() uint {
	if d.GeoBits == 0 {
		return geohash.DefaultBits
	}
	return d.GeoBits
}

// Index is one secondary index over a collection.
//
// Concurrency: the definition is immutable after New, and the scan
// surface (ScanInterval, Len, SizeEstimate) only performs read-only
// tree walks, so concurrent readers are safe whenever no writer runs.
// Insert/Remove mutate the tree and must be serialised against both
// writers and readers — the collection's lock (and above it the
// cluster's) provides exactly that: queries hold read locks, inserts,
// deletes and chunk migrations hold write locks.
type Index struct {
	def  Definition
	tree *btree.Tree
	// spec caches Def().String(): the executor stamps it on every
	// result, and rebuilding it per query allocates on the hot path.
	spec string
}

// New creates an empty index from the definition.
func New(def Definition) (*Index, error) {
	if len(def.Fields) == 0 {
		return nil, fmt.Errorf("index: empty field list")
	}
	if def.Name == "" {
		return nil, fmt.Errorf("index: missing name")
	}
	geoSeen := false
	for _, f := range def.Fields {
		if f.Name == "" {
			return nil, fmt.Errorf("index %s: empty field name", def.Name)
		}
		if f.Kind == Geo2DSphere {
			if geoSeen {
				return nil, fmt.Errorf("index %s: multiple 2dsphere components", def.Name)
			}
			geoSeen = true
		}
	}
	if bits := def.geoBits(); bits > geohash.MaxBits {
		return nil, fmt.Errorf("index %s: geohash precision %d out of range", def.Name, bits)
	}
	return &Index{def: def, tree: btree.NewTree(0), spec: def.String()}, nil
}

// Def returns the index definition.
func (ix *Index) Def() Definition { return ix.def }

// Spec returns the cached rendering of the definition — what Plan
// names and per-query stats use, without re-rendering per call.
func (ix *Index) Spec() string { return ix.spec }

// Len returns the number of indexed entries.
func (ix *Index) Len() int { return ix.tree.Len() }

// SizeEstimate returns the prefix-compressed size estimate of the
// index in bytes.
func (ix *Index) SizeEstimate() int64 { return ix.tree.SizeEstimate() }

// FieldValue extracts the indexed representation of one component
// from a document: the raw value for Ascending components, the
// geohash (as int64) for Geo2DSphere components. Missing fields index
// as null, like the server.
func (ix *Index) FieldValue(f Field, doc *bson.Document) (any, error) {
	v, ok := doc.Lookup(f.Name)
	if !ok {
		return nil, nil
	}
	if f.Kind == Geo2DSphere {
		p, ok := geo.PointFromGeoJSON(v)
		if !ok {
			return nil, fmt.Errorf("index %s: field %q is not a GeoJSON point", ix.def.Name, f.Name)
		}
		return int64(geohash.EncodeBits(p, ix.def.geoBits())), nil
	}
	return bson.Normalize(v), nil
}

// EntryKey builds the full tree key of a decoded document: the encoded
// field tuple followed by the record id, which makes keys unique
// without changing tuple order. The write path never decodes (see
// EntryKeyRaw); this is the reference it is fuzzed against and what
// callers holding a decoded document use.
func (ix *Index) EntryKey(doc *bson.Document, id storage.RecordID) ([]byte, error) {
	var key []byte
	for _, f := range ix.def.Fields {
		v, err := ix.FieldValue(f, doc)
		if err != nil {
			return nil, err
		}
		key = keyenc.AppendValue(key, v)
	}
	return binary.BigEndian.AppendUint64(key, uint64(id)), nil
}

// EntryKeyRaw is EntryKey over the encoded document: byte for byte the
// key EntryKey builds for the decoded form, and an error exactly where
// it errors, read from the stored bytes without decoding them
// (FuzzEntryKeyRaw). raw must be a valid encoding.
func (ix *Index) EntryKeyRaw(raw bson.Raw, id storage.RecordID) ([]byte, error) {
	return ix.appendEntryKeyRaw(nil, raw, id)
}

// appendEntryKeyRaw appends the encoded document's full tree key to
// dst.
func (ix *Index) appendEntryKeyRaw(dst []byte, raw bson.Raw, id storage.RecordID) ([]byte, error) {
	for _, f := range ix.def.Fields {
		// A missing field yields the zero RawValue, which encodes as
		// null — how missing fields index.
		v, found := raw.LookupRaw(f.Name)
		if found && f.Kind == Geo2DSphere {
			hash, err := ix.geoKey(f, v)
			if err != nil {
				return nil, err
			}
			dst = keyenc.AppendNumber(dst, float64(hash))
			continue
		}
		dst, _ = keyenc.AppendRaw(dst, v)
	}
	return binary.BigEndian.AppendUint64(dst, uint64(id)), nil
}

// geoKey is the key value of a present 2dsphere component: the
// geohash of its point, or an error when it is not a GeoJSON point.
func (ix *Index) geoKey(f Field, v bson.RawValue) (int64, error) {
	lon, lat, ok := v.GeoPoint()
	if !ok {
		return 0, fmt.Errorf("index %s: field %q is not a GeoJSON point", ix.def.Name, f.Name)
	}
	return int64(geohash.EncodeBits(geo.Point{Lon: lon, Lat: lat}, ix.def.geoBits())), nil
}

// CheckRaw reports the error InsertRaw would return for the encoded
// document, storing nothing: only a 2dsphere component can refuse one.
func (ix *Index) CheckRaw(raw bson.Raw) error {
	for _, f := range ix.def.Fields {
		if f.Kind != Geo2DSphere {
			continue
		}
		if v, found := raw.LookupRaw(f.Name); found {
			if _, err := ix.geoKey(f, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// KeyPrefix strips the record-id suffix from a full tree key,
// returning the encoded field tuple. Chunk management uses it to read
// shard-key values back out of index entries.
func KeyPrefix(key []byte) []byte { return key[:len(key)-8] }

// RecordIDOf extracts the record id from a full tree key.
func RecordIDOf(key []byte) storage.RecordID {
	return storage.RecordID(binary.BigEndian.Uint64(key[len(key)-8:]))
}

// entryKeyBuf is the stack buffer index keys are built in: the tree
// copies a key into its arena on Set and only reads it on Delete, so
// maintaining an index allocates nothing per document. Keys of the
// store's indexes are 20-40 bytes; longer ones spill to the heap.
type entryKeyBuf [64]byte

// InsertRaw adds the encoded document to the index.
func (ix *Index) InsertRaw(raw bson.Raw, id storage.RecordID) error {
	var buf entryKeyBuf
	key, err := ix.appendEntryKeyRaw(buf[:0], raw, id)
	if err != nil {
		return err
	}
	ix.tree.Set(key, uint64(id))
	return nil
}

// RemoveRaw deletes the encoded document's entry, reporting whether it
// existed.
func (ix *Index) RemoveRaw(raw bson.Raw, id storage.RecordID) (bool, error) {
	var buf entryKeyBuf
	key, err := ix.appendEntryKeyRaw(buf[:0], raw, id)
	if err != nil {
		return false, err
	}
	return ix.tree.Delete(key), nil
}

// Insert adds a decoded document: InsertRaw on its encoding.
func (ix *Index) Insert(doc *bson.Document, id storage.RecordID) error {
	return ix.InsertRaw(bson.Marshal(doc), id)
}

// Remove deletes a decoded document's entry: RemoveRaw on its encoding.
func (ix *Index) Remove(doc *bson.Document, id storage.RecordID) (bool, error) {
	return ix.RemoveRaw(bson.Marshal(doc), id)
}

// Interval is one contiguous key range of an index scan, expressed
// over encoded field-tuple prefixes. The record-id suffix on stored
// keys means prefix bounds behave like value bounds: an inclusive
// upper bound on a tuple prefix must cover every record id under it,
// which Upper handles via PrefixUpperBound.
type Interval struct {
	Low  btree.Bound
	High btree.Bound
}

// ScanInterval visits every entry in the interval in key order,
// calling fn with the record id. It returns the number of keys
// examined. fn returns false to stop.
func (ix *Index) ScanInterval(iv Interval, fn func(key []byte, id storage.RecordID) bool) int {
	return ix.tree.Scan(iv.Low, iv.High, func(key []byte, v uint64) bool {
		return fn(key, storage.RecordID(v))
	})
}

// IterInit positions a resumable iterator over the interval. The
// iterator yields borrowed keys and is the allocation-free twin of
// ScanInterval: the executor pools one iterator per execution and
// seeks it forward for skip-scans instead of restarting the walk.
func (ix *Index) IterInit(it *btree.Iterator, iv Interval) {
	it.Init(ix.tree, iv.Low, iv.High)
}

// IntervalFromTuples builds the Interval covering all entries whose
// field tuple t satisfies lo <= t <= hi, where lo and hi are encoded
// tuple prefixes (possibly of fewer components than the index has).
func IntervalFromTuples(lo, hi []byte) Interval {
	return Interval{Low: lowerBoundInclusive(lo), High: upperBoundInclusive(hi)}
}

// lowerBoundInclusive: every full key with tuple >= lo. Full keys
// extend tuples with record ids, and extensions sort after the bare
// prefix, so an inclusive bound at the bare prefix works.
func lowerBoundInclusive(lo []byte) btree.Bound {
	if lo == nil {
		return btree.Unbounded()
	}
	return btree.Include(lo)
}

// upperBoundInclusive: every full key whose tuple prefix is <= hi,
// including all record ids under hi itself, so the exclusive bound is
// the upper bound of hi's prefix extension space.
func upperBoundInclusive(hi []byte) btree.Bound {
	if hi == nil {
		return btree.Unbounded()
	}
	ub := keyenc.PrefixUpperBound(hi)
	if ub == nil {
		return btree.Unbounded()
	}
	return btree.Exclude(ub)
}

// UpperBoundExclusive: every full key with tuple strictly below hi.
func UpperBoundExclusive(hi []byte) btree.Bound {
	if hi == nil {
		return btree.Unbounded()
	}
	return btree.Exclude(hi)
}
