package index

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/keyenc"
	"repro/internal/storage"
)

// fuzzKeyFields are the paths the seed documents populate with every
// indexable kind (and, after mutation, populate wrongly), plus paths
// they never have.
var fuzzKeyFields = []string{
	"i32", "i64", "num", "s", "date", "id", "nul", "ok", "min", "max",
	"location", "loose", "swapped", "notpoint", "sub", "sub.x", "arr", "missing", "",
}

// fuzzIndexes builds one single-field index per fuzz field, a 2dsphere
// index over each of them, and the store's three compound shapes.
func fuzzIndexes(t testing.TB) []*Index {
	var defs []Definition
	for _, f := range fuzzKeyFields {
		if f == "" {
			continue // rejected by New
		}
		defs = append(defs,
			Definition{Name: f + "_1", Fields: []Field{{Name: f, Kind: Ascending}}},
			Definition{Name: f + "_2dsphere", Fields: []Field{{Name: f, Kind: Geo2DSphere}}, GeoBits: 20},
		)
	}
	defs = append(defs,
		Definition{Name: "shardkey", Fields: []Field{{Name: "i64", Kind: Ascending}, {Name: "date", Kind: Ascending}}},
		Definition{Name: "st", Fields: []Field{{Name: "location", Kind: Geo2DSphere}, {Name: "date", Kind: Ascending}}},
		Definition{Name: "ts", Fields: []Field{{Name: "date", Kind: Ascending}, {Name: "loose", Kind: Geo2DSphere}}},
	)
	ixs := make([]*Index, len(defs))
	for i, def := range defs {
		ix, err := New(def)
		if err != nil {
			t.Fatal(err)
		}
		ixs[i] = ix
	}
	return ixs
}

// FuzzEntryKeyRaw holds the byte path of index maintenance to the
// decoding reference: for any document that decodes, the key read from
// the encoded bytes equals the key built from the decoded document,
// byte for byte, and fails exactly when it fails; bytes that do not
// decode must not panic it. Every Ascending component cut from the key
// is also the document's sort key (sortKey), which is what lets an
// ordered execution order candidates by their keys alone.
func FuzzEntryKeyRaw(f *testing.F) {
	point := func(coords ...any) *bson.Document {
		return bson.FromD(bson.D{{Key: "type", Value: "Point"}, {Key: "coordinates", Value: bson.A(coords)}})
	}
	seed := bson.Marshal(bson.FromD(bson.D{
		{Key: "i32", Value: int32(-7)},
		{Key: "i64", Value: int64(1) << 40},
		{Key: "num", Value: -0.0},
		{Key: "s", Value: "αθήνα\x00embedded"},
		{Key: "date", Value: time.UnixMilli(1_531_000_000_123).UTC()},
		{Key: "id", Value: bson.NewObjectIDGen(3).New(time.Unix(1_531_000_000, 0))},
		{Key: "nul", Value: nil},
		{Key: "ok", Value: true},
		{Key: "min", Value: bson.MinKey},
		{Key: "max", Value: bson.MaxKey},
		{Key: "location", Value: point(23.72, 37.98)},
		// Mixed numeric kinds, an extra member, members out of order.
		{Key: "loose", Value: bson.FromD(bson.D{
			{Key: "crs", Value: "EPSG:4326"},
			{Key: "coordinates", Value: bson.A{int32(23), int64(38)}},
			{Key: "type", Value: "Point"},
		})},
		{Key: "swapped", Value: bson.FromD(bson.D{
			{Key: "type", Value: "Point"}, {Key: "type", Value: "Polygon"},
			{Key: "coordinates", Value: bson.A{1.5, 2.5}}, {Key: "coordinates", Value: "shadowed"},
		})},
		{Key: "notpoint", Value: point(1.0, 2.0, 3.0)},
		{Key: "sub", Value: bson.FromD(bson.D{{Key: "x", Value: int64(9)}, {Key: "y", Value: point("a", 2.0)}})},
		{Key: "arr", Value: bson.A{int64(1), "two", point(1.0, 2.0)}},
	}))
	f.Add(seed, uint64(1))
	f.Add(seed[:len(seed)/2], uint64(2))
	f.Add(seed[:len(seed)-1], ^uint64(0))
	f.Add([]byte{5, 0, 0, 0, 0}, uint64(0))
	f.Add([]byte{}, uint64(7))
	// A bool byte of 2 and an array keyed "1": valid, not canonical.
	f.Add([]byte{10, 0, 0, 0, 0x08, 'o', 'k', 0, 2, 0}, uint64(3))
	f.Add([]byte{18, 0, 0, 0, 0x04, 'a', 'r', 'r', 0, 8, 0, 0, 0, 0x0A, '1', 0, 0, 0}, uint64(4))

	ixs := fuzzIndexes(f)
	f.Fuzz(func(t *testing.T, data []byte, rid uint64) {
		id := storage.RecordID(rid)
		doc, err := bson.Unmarshal(data)
		for _, ix := range ixs {
			got, gotErr := ix.EntryKeyRaw(data, id) // must not panic, whatever data is
			if err != nil {
				continue
			}
			want, wantErr := ix.EntryKey(doc, id)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("index %s: raw error %v, decoded error %v\ninput: %x", ix.Def().Name, gotErr, wantErr, data)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("index %s: raw key %x, decoded key %x\ninput: %x", ix.Def().Name, got, want, data)
			}
			if wantErr != nil {
				continue
			}
			comps := KeyPrefix(got)
			for _, fld := range ix.Def().Fields {
				n, err := keyenc.ComponentLen(comps)
				if err != nil {
					t.Fatalf("index %s: key %x does not split into components: %v", ix.Def().Name, got, err)
				}
				if fld.Kind == Ascending && !bytes.Equal(comps[:n], sortKey(data, fld.Name)) {
					t.Fatalf("index %s: component %x of %q, sort key %x\ninput: %x",
						ix.Def().Name, comps[:n], fld.Name, sortKey(data, fld.Name), data)
				}
				comps = comps[n:]
			}
			// The maintenance entry points build the same key.
			if err := ix.InsertRaw(data, id); err != nil {
				t.Fatalf("index %s: InsertRaw: %v", ix.Def().Name, err)
			}
			if n := ix.Len(); n != 1 {
				t.Fatalf("index %s holds %d entries after one insert", ix.Def().Name, n)
			}
			if removed, err := ix.Remove(doc, id); err != nil || !removed {
				t.Fatalf("index %s: Remove of the inserted entry = %v, %v", ix.Def().Name, removed, err)
			}
		}
	})
}

// sortKey is how an ordered execution encodes a document's order-by
// field: the query package's appendSortKey, which imports this package
// and so cannot be called from it.
func sortKey(raw bson.Raw, field string) []byte {
	if v, ok := raw.LookupRaw(field); ok {
		if out, ok := keyenc.AppendRaw(nil, v); ok {
			return out
		}
	}
	return keyenc.AppendValue(nil, nil)
}

// TestIndexMaintenanceDoesNotAllocate: keys are built in a stack buffer
// and copied into the tree's arena, so adding a document to an index
// and taking it out again leaves no garbage (arena growth aside).
func TestIndexMaintenanceDoesNotAllocate(t *testing.T) {
	at := time.Date(2018, 7, 1, 0, 0, 0, 0, time.UTC)
	raw := bson.Marshal(stDoc(1, 23.7, 37.9, at, 42))
	for _, def := range []Definition{
		{Name: "shardkey", Fields: []Field{{Name: "hilbertIndex"}, {Name: "date"}}},
		{Name: "st", Fields: []Field{{Name: "location", Kind: Geo2DSphere}, {Name: "date"}}},
	} {
		ix, err := New(def)
		if err != nil {
			t.Fatal(err)
		}
		// Warm the arena so its growth is not counted.
		for id := storage.RecordID(1); id <= 64; id++ {
			if err := ix.InsertRaw(raw, id); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if err := ix.InsertRaw(raw, 1000); err != nil {
				t.Fatal(err)
			}
			if removed, err := ix.RemoveRaw(raw, 1000); err != nil || !removed {
				t.Fatalf("RemoveRaw = %v, %v", removed, err)
			}
		}); allocs != 0 {
			t.Errorf("index %s: insert+remove allocated %v objects", def.Name, allocs)
		}
	}
}
