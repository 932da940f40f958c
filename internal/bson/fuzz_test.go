package bson

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// FuzzDocumentRoundTrip feeds arbitrary bytes to Unmarshal. Inputs the
// decoder rejects are fine; inputs it accepts must re-encode to a
// stable fixed point: Marshal(doc) must decode to a semantically equal
// document whose own encoding is byte-identical. (First-generation
// byte identity is not required — array elements are re-keyed
// canonically, so a decodable input with gap-keyed arrays may
// re-encode differently once.)
func FuzzDocumentRoundTrip(f *testing.F) {
	seed := FromD(D{
		{Key: "_id", Value: NewObjectIDGen(7).New(time.Unix(1_531_000_000, 0))},
		{Key: "location", Value: FromD(D{
			{Key: "type", Value: "Point"},
			{Key: "coordinates", Value: A{23.72, 37.98}},
		})},
		{Key: "date", Value: time.UnixMilli(1_531_000_000_123).UTC()},
		{Key: "hilbertIndex", Value: int64(123456)},
		{Key: "count", Value: int32(-5)},
		{Key: "ok", Value: true},
		{Key: "note", Value: "αθήνα\x00embedded"},
		{Key: "none", Value: nil},
		{Key: "min", Value: MinKey},
		{Key: "max", Value: MaxKey},
	})
	f.Add(Marshal(seed))
	f.Add([]byte{5, 0, 0, 0, 0}) // empty document
	f.Add([]byte{})
	f.Add([]byte{255, 255, 255, 255, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := Unmarshal(data)
		if err != nil {
			return // rejected input: fine, as long as we didn't panic
		}
		enc := Marshal(doc)
		doc2, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("re-decode of Marshal output failed: %v\ninput: %x\nenc:   %x", err, data, enc)
		}
		if !reflect.DeepEqual(doc.Elems(), doc2.Elems()) {
			t.Fatalf("round trip changed the document\n was: %v\n got: %v", doc, doc2)
		}
		enc2 := Marshal(doc2)
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point\nenc1: %x\nenc2: %x", enc, enc2)
		}
		if got := RawSize(doc); got != len(enc) {
			t.Fatalf("RawSize = %d, want %d", got, len(enc))
		}
	})
}

// FuzzValidate holds the non-allocating structural walk to the decoder
// it stands in for on the write path: Validate accepts exactly what
// Unmarshal accepts, calls canonical exactly what Marshal would write
// back unchanged, and never panics.
func FuzzValidate(f *testing.F) {
	seed := Marshal(FromD(D{
		{Key: "_id", Value: NewObjectIDGen(7).New(time.Unix(1_531_000_000, 0))},
		{Key: "location", Value: FromD(D{
			{Key: "type", Value: "Point"},
			{Key: "coordinates", Value: A{23.72, int32(38), int64(-1), 0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5}},
		})},
		{Key: "date", Value: time.UnixMilli(-1).UTC()},
		{Key: "ok", Value: true},
		{Key: "note", Value: "αθήνα\x00embedded"},
		{Key: "none", Value: nil},
		{Key: "nested", Value: A{A{false, "x"}, FromD(D{{Key: "min", Value: MinKey}, {Key: "max", Value: MaxKey}})}},
	}))
	f.Add(seed)
	f.Add(seed[:len(seed)-1])
	f.Add(append(bytes.Clone(seed), 0))
	f.Add([]byte{5, 0, 0, 0, 0})
	f.Add([]byte{})
	// Valid but not canonical: a bool byte of 2, an array keyed "1".
	f.Add([]byte{9, 0, 0, 0, 0x08, 'b', 0, 2, 0})
	f.Add([]byte{16, 0, 0, 0, 0x04, 'a', 0, 8, 0, 0, 0, 0x0A, '1', 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		canonical, verr := Validate(data)
		doc, uerr := Unmarshal(data)
		if (verr == nil) != (uerr == nil) {
			t.Fatalf("Validate error %v, Unmarshal error %v\ninput: %x", verr, uerr, data)
		}
		if uerr != nil {
			if canonical {
				t.Fatalf("rejected input reported canonical: %x", data)
			}
			return
		}
		if want := bytes.Equal(Marshal(doc), data); canonical != want {
			t.Fatalf("canonical = %v, re-encoding equal = %v\ninput: %x\nenc:   %x", canonical, want, data, Marshal(doc))
		}
	})
}

// TestValidateDoesNotAllocate: the walk that replaced Unmarshal on
// replay and at the network edge must not bring its garbage back.
func TestValidateDoesNotAllocate(t *testing.T) {
	raw := Marshal(FromD(D{
		{Key: "_id", Value: int64(1)},
		{Key: "location", Value: FromD(D{{Key: "type", Value: "Point"}, {Key: "coordinates", Value: A{23.7, 37.9}}})},
		{Key: "note", Value: "athens"},
	}))
	if allocs := testing.AllocsPerRun(100, func() {
		if canonical, err := Validate(raw); err != nil || !canonical {
			t.Fatalf("Validate = %v, %v", canonical, err)
		}
	}); allocs != 0 {
		t.Fatalf("Validate allocated %v objects per run", allocs)
	}
}
