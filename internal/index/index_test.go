package index

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/geohash"
	"repro/internal/keyenc"
	"repro/internal/storage"
)

func stDoc(id int64, lon, lat float64, at time.Time, hv int64) *bson.Document {
	return bson.FromD(bson.D{
		{Key: "_id", Value: id},
		{Key: "location", Value: geo.GeoJSONPoint(geo.Point{Lon: lon, Lat: lat})},
		{Key: "date", Value: at},
		{Key: "hilbertIndex", Value: hv},
	})
}

func TestNewValidation(t *testing.T) {
	cases := []Definition{
		{},
		{Name: "x"},
		{Name: "x", Fields: []Field{{Name: ""}}},
		{Name: "x", Fields: []Field{{Name: "a", Kind: Geo2DSphere}, {Name: "b", Kind: Geo2DSphere}}},
		{Name: "x", Fields: []Field{{Name: "a", Kind: Geo2DSphere}}, GeoBits: 99},
	}
	for i, def := range cases {
		if _, err := New(def); err == nil {
			t.Errorf("case %d: invalid definition accepted: %v", i, def)
		}
	}
}

func TestDefinitionString(t *testing.T) {
	def := Definition{Name: "st", Fields: []Field{
		{Name: "location", Kind: Geo2DSphere},
		{Name: "date", Kind: Ascending},
	}}
	if got := def.String(); got != "{location: 2dsphere, date: 1}" {
		t.Fatalf("String = %q", got)
	}
}

func TestInsertScanRemove(t *testing.T) {
	ix, err := New(Definition{Name: "date_1", Fields: []Field{{Name: "date", Kind: Ascending}}})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2018, 7, 1, 0, 0, 0, 0, time.UTC)
	for i := int64(0); i < 100; i++ {
		doc := stDoc(i, 23.7, 37.9, base.Add(time.Duration(i)*time.Hour), i)
		if err := ix.Insert(doc, storage.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 100 {
		t.Fatalf("Len = %d", ix.Len())
	}
	// Scan hours [10, 19].
	lo := keyenc.Encode(base.Add(10 * time.Hour))
	hi := keyenc.Encode(base.Add(19 * time.Hour))
	var got []storage.RecordID
	examined := ix.ScanInterval(IntervalFromTuples(lo, hi), func(key []byte, id storage.RecordID) bool {
		got = append(got, id)
		return true
	})
	if len(got) != 10 {
		t.Fatalf("scan returned %d ids: %v", len(got), got)
	}
	if examined < 10 || examined > 11 {
		t.Fatalf("keys examined = %d", examined)
	}
	for i, id := range got {
		if id != storage.RecordID(11+i) {
			t.Fatalf("ids out of order: %v", got)
		}
	}
	// Remove one and re-scan.
	doc := stDoc(15, 23.7, 37.9, base.Add(15*time.Hour), 15)
	removed, err := ix.Remove(doc, storage.RecordID(16))
	if err != nil || !removed {
		t.Fatalf("Remove = %v, %v", removed, err)
	}
	got = got[:0]
	ix.ScanInterval(IntervalFromTuples(lo, hi), func(key []byte, id storage.RecordID) bool {
		got = append(got, id)
		return true
	})
	if len(got) != 9 {
		t.Fatalf("scan after remove returned %d ids", len(got))
	}
}

func TestDuplicateValuesDistinctEntries(t *testing.T) {
	ix, _ := New(Definition{Name: "h", Fields: []Field{{Name: "hilbertIndex", Kind: Ascending}}})
	at := time.Now()
	for i := int64(1); i <= 5; i++ {
		if err := ix.Insert(stDoc(i, 0, 0, at, 42), storage.RecordID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 5 {
		t.Fatalf("Len = %d, want 5 entries for the same value", ix.Len())
	}
	k := keyenc.Encode(int64(42))
	n := 0
	ix.ScanInterval(IntervalFromTuples(k, k), func(key []byte, id storage.RecordID) bool {
		n++
		if got := RecordIDOf(key); got != id {
			t.Fatalf("RecordIDOf = %d, callback id %d", got, id)
		}
		if !bytes.Equal(KeyPrefix(key), k) {
			t.Fatal("KeyPrefix did not strip record id")
		}
		return true
	})
	if n != 5 {
		t.Fatalf("point scan found %d entries", n)
	}
}

func TestCompoundKeyOrdering(t *testing.T) {
	ix, _ := New(Definition{Name: "hd", Fields: []Field{
		{Name: "hilbertIndex", Kind: Ascending},
		{Name: "date", Kind: Ascending},
	}})
	t0 := time.Date(2018, 7, 1, 0, 0, 0, 0, time.UTC)
	// Insert out of order.
	entries := []struct {
		hv int64
		at time.Time
	}{
		{2, t0.Add(time.Hour)},
		{1, t0.Add(5 * time.Hour)},
		{2, t0},
		{1, t0},
	}
	for i, e := range entries {
		if err := ix.Insert(stDoc(int64(i), 0, 0, e.at, e.hv), storage.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	var order []storage.RecordID
	ix.ScanInterval(Interval{}, func(key []byte, id storage.RecordID) bool {
		order = append(order, id)
		return true
	})
	// Expected: (1,t0)=4, (1,t0+5h)=2, (2,t0)=3, (2,t0+1h)=1.
	want := []storage.RecordID{4, 2, 3, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("scan order = %v, want %v", order, want)
		}
	}
}

func TestGeo2DSphereIndexing(t *testing.T) {
	ix, _ := New(Definition{Name: "loc", Fields: []Field{
		{Name: "location", Kind: Geo2DSphere},
		{Name: "date", Kind: Ascending},
	}})
	athens := geo.Point{Lon: 23.727539, Lat: 37.983810}
	doc := stDoc(1, athens.Lon, athens.Lat, time.Now(), 0)
	v, err := ix.FieldValue(ix.Def().Fields[0], doc)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(geohash.EncodeBits(athens, geohash.DefaultBits))
	if v != want {
		t.Fatalf("FieldValue = %v, want %v", v, want)
	}
	if err := ix.Insert(doc, 1); err != nil {
		t.Fatal(err)
	}
	// A non-point location errors.
	bad := bson.FromD(bson.D{{Key: "location", Value: "not a point"}})
	if _, err := ix.FieldValue(ix.Def().Fields[0], bad); err == nil {
		t.Fatal("non-point location accepted")
	}
	if err := ix.Insert(bad, 2); err == nil {
		t.Fatal("Insert of non-point location succeeded")
	}
}

func TestMissingFieldIndexesAsNull(t *testing.T) {
	ix, _ := New(Definition{Name: "v", Fields: []Field{{Name: "v", Kind: Ascending}}})
	doc := bson.FromD(bson.D{{Key: "_id", Value: int64(1)}})
	if err := ix.Insert(doc, 1); err != nil {
		t.Fatal(err)
	}
	k := keyenc.Encode(nil)
	n := 0
	ix.ScanInterval(IntervalFromTuples(k, k), func([]byte, storage.RecordID) bool {
		n++
		return true
	})
	if n != 1 {
		t.Fatalf("null scan found %d entries", n)
	}
}

func TestIntervalFromTuplesCoversRecordIDs(t *testing.T) {
	// An inclusive upper bound at tuple (x) must include every record
	// id stored under (x).
	ix, _ := New(Definition{Name: "v", Fields: []Field{{Name: "hilbertIndex", Kind: Ascending}}})
	at := time.Now()
	for i := int64(1); i <= 3; i++ {
		ix.Insert(stDoc(i, 0, 0, at, 7), storage.RecordID(i))
	}
	ix.Insert(stDoc(4, 0, 0, at, 8), 4)
	k7 := keyenc.Encode(int64(7))
	n := 0
	ix.ScanInterval(IntervalFromTuples(nil, k7), func([]byte, storage.RecordID) bool {
		n++
		return true
	})
	if n != 3 {
		t.Fatalf("upper-inclusive scan found %d entries, want 3", n)
	}
	// Exclusive upper bound at (8) excludes all of value 8.
	n = 0
	ix.ScanInterval(Interval{High: UpperBoundExclusive(keyenc.Encode(int64(8)))},
		func([]byte, storage.RecordID) bool {
			n++
			return true
		})
	if n != 3 {
		t.Fatalf("upper-exclusive scan found %d entries, want 3", n)
	}
}

func TestSizeEstimateGrowsWithEntries(t *testing.T) {
	ix, _ := New(Definition{Name: "v", Fields: []Field{{Name: "hilbertIndex", Kind: Ascending}}})
	at := time.Now()
	prev := ix.SizeEstimate()
	for i := int64(1); i <= 100; i++ {
		ix.Insert(stDoc(i, 0, 0, at, i), storage.RecordID(i))
	}
	if got := ix.SizeEstimate(); got <= prev {
		t.Fatalf("SizeEstimate = %d after inserts", got)
	}
}
