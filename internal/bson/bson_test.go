package bson

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDocumentSetGetPreservesOrder(t *testing.T) {
	d := NewDocument()
	d.Set("b", int64(1)).Set("a", "x").Set("c", 3.5)
	if got := d.Keys(); len(got) != 3 || got[0] != "b" || got[1] != "a" || got[2] != "c" {
		t.Fatalf("keys = %v, want [b a c]", got)
	}
	d.Set("a", "y") // replace keeps position
	if got := d.Keys(); got[1] != "a" {
		t.Fatalf("keys after replace = %v", got)
	}
	if v := d.Get("a"); v != "y" {
		t.Fatalf("Get(a) = %v, want y", v)
	}
	if v := d.Get("missing"); v != nil {
		t.Fatalf("Get(missing) = %v, want nil", v)
	}
}

func TestDocumentLookupDottedPath(t *testing.T) {
	inner := FromD(D{{Key: "type", Value: "Point"}, {Key: "x", Value: int64(7)}})
	d := FromD(D{{Key: "location", Value: inner}, {Key: "v", Value: int64(1)}})
	if v, ok := d.Lookup("location.x"); !ok || v != int64(7) {
		t.Fatalf("Lookup(location.x) = %v, %v", v, ok)
	}
	if _, ok := d.Lookup("location.missing"); ok {
		t.Fatal("Lookup of missing nested key succeeded")
	}
	if _, ok := d.Lookup("v.x"); ok {
		t.Fatal("Lookup through scalar succeeded")
	}
	if v, ok := d.Lookup("v"); !ok || v != int64(1) {
		t.Fatalf("Lookup(v) = %v, %v", v, ok)
	}
}

func TestDocumentDelete(t *testing.T) {
	d := FromD(D{{Key: "a", Value: int64(1)}, {Key: "b", Value: int64(2)}})
	if !d.Delete("a") {
		t.Fatal("Delete(a) = false")
	}
	if d.Delete("a") {
		t.Fatal("second Delete(a) = true")
	}
	if d.Len() != 1 || d.Keys()[0] != "b" {
		t.Fatalf("after delete: %v", d)
	}
}

func TestDocumentClone(t *testing.T) {
	inner := FromD(D{{Key: "n", Value: int64(1)}})
	d := FromD(D{{Key: "sub", Value: inner}, {Key: "arr", Value: A{int64(1), int64(2)}}})
	c := d.Clone()
	inner.Set("n", int64(99))
	if got := c.Get("sub").(*Document).Get("n"); got != int64(1) {
		t.Fatalf("clone shares nested document: %v", got)
	}
}

func TestCanonicalClassOrdering(t *testing.T) {
	// MinKey < null < number < string < document < array < objectid <
	// bool < date < MaxKey
	ordered := []any{
		MinKey,
		nil,
		int64(5),
		"abc",
		FromD(D{{Key: "a", Value: int64(1)}}),
		A{int64(1)},
		ObjectID{},
		false,
		time.Unix(0, 0),
		MaxKey,
	}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			got := Compare(ordered[i], ordered[j])
			switch {
			case i < j && got >= 0:
				t.Errorf("Compare(%v, %v) = %d, want < 0", ordered[i], ordered[j], got)
			case i > j && got <= 0:
				t.Errorf("Compare(%v, %v) = %d, want > 0", ordered[i], ordered[j], got)
			case i == j && got != 0:
				t.Errorf("Compare(%v, %v) = %d, want 0", ordered[i], ordered[j], got)
			}
		}
	}
}

func TestCompareNumericKindsMix(t *testing.T) {
	if Compare(int64(3), 3.0) != 0 {
		t.Error("int64(3) != 3.0")
	}
	if Compare(int32(2), int64(3)) >= 0 {
		t.Error("int32(2) >= int64(3)")
	}
	if Compare(3.5, int64(3)) <= 0 {
		t.Error("3.5 <= int64(3)")
	}
}

func TestCompareArraysAndDocuments(t *testing.T) {
	if Compare(A{int64(1), int64(2)}, A{int64(1), int64(3)}) >= 0 {
		t.Error("array element order wrong")
	}
	if Compare(A{int64(1)}, A{int64(1), int64(0)}) >= 0 {
		t.Error("shorter array should sort first")
	}
	a := FromD(D{{Key: "a", Value: int64(1)}})
	b := FromD(D{{Key: "b", Value: int64(0)}})
	if Compare(a, b) >= 0 {
		t.Error("document key order wrong")
	}
}

func TestCompareProperties(t *testing.T) {
	// Antisymmetry and consistency over random numeric/string values.
	f := func(a, b float64, s1, s2 string) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if sgn(Compare(a, b)) != -sgn(Compare(b, a)) {
			return false
		}
		return sgn(Compare(s1, s2)) == -sgn(Compare(s2, s1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sgn(v int) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	}
	return 0
}

func TestMarshalRoundTrip(t *testing.T) {
	gen := NewObjectIDGen(42)
	doc := FromD(D{
		{Key: "_id", Value: gen.New(time.Date(2018, 10, 1, 8, 34, 40, 0, time.UTC))},
		{Key: "location", Value: FromD(D{
			{Key: "type", Value: "Point"},
			{Key: "coordinates", Value: A{23.727539, 37.983810}},
		})},
		{Key: "date", Value: time.Date(2018, 10, 1, 8, 34, 40, 67000000, time.UTC)},
		{Key: "hilbertIndex", Value: int64(12345678)},
		{Key: "speed", Value: 52.5},
		{Key: "vehicle", Value: "GRC-1234"},
		{Key: "engineOn", Value: true},
		{Key: "fuel", Value: int32(47)},
		{Key: "note", Value: nil},
	})
	raw := Marshal(doc)
	if len(raw) != RawSize(doc) {
		t.Fatalf("RawSize = %d, Marshal produced %d bytes", RawSize(doc), len(raw))
	}
	back, err := Unmarshal(raw)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if Compare(doc, back) != 0 {
		t.Fatalf("round trip mismatch:\n in: %v\nout: %v", doc, back)
	}
	if got := back.Keys(); got[0] != "_id" || got[2] != "date" {
		t.Fatalf("field order lost: %v", got)
	}
}

func TestMarshalRoundTripMinMaxKeys(t *testing.T) {
	doc := FromD(D{{Key: "lo", Value: MinKey}, {Key: "hi", Value: MaxKey}})
	back, err := Unmarshal(Marshal(doc))
	if err != nil {
		t.Fatal(err)
	}
	if KindOf(back.Get("lo")) != KindMinKey || KindOf(back.Get("hi")) != KindMaxKey {
		t.Fatalf("min/max keys lost: %v", back)
	}
}

func TestUnmarshalRejectsCorruptInput(t *testing.T) {
	doc := FromD(D{{Key: "a", Value: "hello"}, {Key: "b", Value: int64(5)}})
	raw := Marshal(doc)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated", raw[:len(raw)-3]},
		{"trailing", append(append([]byte{}, raw...), 0xAB)},
		{"bad length", append([]byte{0xFF, 0xFF, 0xFF, 0x7F}, raw[4:]...)},
	} {
		if _, err := Unmarshal(tc.data); err == nil {
			t.Errorf("%s: Unmarshal accepted corrupt input", tc.name)
		}
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool) bool {
		if math.IsNaN(fl) {
			return true
		}
		doc := FromD(D{
			{Key: "i", Value: i},
			{Key: "f", Value: fl},
			{Key: "s", Value: s},
			{Key: "b", Value: b},
			{Key: "arr", Value: A{i, s}},
		})
		back, err := Unmarshal(Marshal(doc))
		return err == nil && Compare(doc, back) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestObjectIDLayout(t *testing.T) {
	gen := NewObjectIDGen(7)
	at := time.Date(2018, 7, 15, 12, 0, 0, 0, time.UTC)
	id1 := gen.New(at)
	id2 := gen.New(at)
	if id1 == id2 {
		t.Fatal("consecutive ids equal")
	}
	if got := binary.BigEndian.Uint32(id1[0:4]); int64(got) != at.Unix() {
		t.Fatalf("leading 4 bytes hold %d, want the generation time %d", got, at.Unix())
	}
	// Same generation time => 9-byte shared prefix (timestamp+random).
	for i := 0; i < 9; i++ {
		if id1[i] != id2[i] {
			t.Fatalf("ids differ at byte %d; want shared 9-byte prefix", i)
		}
	}
	// Counter increments.
	c1 := int(id1[9])<<16 | int(id1[10])<<8 | int(id1[11])
	c2 := int(id2[9])<<16 | int(id2[10])<<8 | int(id2[11])
	if (c1+1)&0xFFFFFF != c2 {
		t.Fatalf("counter did not increment: %d -> %d", c1, c2)
	}
}

func TestObjectIDHexRoundTrip(t *testing.T) {
	gen := NewObjectIDGen(1)
	id := gen.New(time.Now())
	back, err := ObjectIDFromHex(id.Hex())
	if err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatalf("hex round trip: %v != %v", back, id)
	}
	if _, err := ObjectIDFromHex("zz"); err == nil {
		t.Error("short hex accepted")
	}
	if _, err := ObjectIDFromHex("zzzzzzzzzzzzzzzzzzzzzzzz"); err == nil {
		t.Error("invalid hex accepted")
	}
}

func TestRawSizeMatchesEncodedSizeForNested(t *testing.T) {
	doc := FromD(D{
		{Key: "nested", Value: FromD(D{
			{Key: "deep", Value: FromD(D{{Key: "x", Value: A{int64(1), 2.0, "three"}}})},
		})},
	})
	if got, want := len(Marshal(doc)), RawSize(doc); got != want {
		t.Fatalf("encoded %d bytes, RawSize says %d", got, want)
	}
}
