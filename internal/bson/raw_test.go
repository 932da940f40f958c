package bson

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func sampleDoc() *Document {
	inner := FromD(D{
		{Key: "type", Value: "Point"},
		{Key: "coordinates", Value: A{23.727539, 37.983810}},
	})
	deep := FromD(D{{Key: "leaf", Value: int64(99)}})
	return FromD(D{
		{Key: "_id", Value: int64(1)},
		{Key: "location", Value: inner},
		{Key: "date", Value: time.Date(2018, 7, 1, 8, 0, 0, 0, time.UTC)},
		{Key: "hilbertIndex", Value: int64(36854767)},
		{Key: "speed", Value: 52.5},
		{Key: "vehicle", Value: "GRC-1234"},
		{Key: "engineOn", Value: true},
		{Key: "nested", Value: FromD(D{{Key: "deep", Value: deep}})},
		{Key: "tags", Value: A{"a", int64(2)}},
		{Key: "nothing", Value: nil},
	})
}

func TestRawLookupMatchesDecodedLookup(t *testing.T) {
	doc := sampleDoc()
	raw := Raw(Marshal(doc))
	paths := []string{
		"_id", "location", "location.type", "location.coordinates",
		"date", "hilbertIndex", "speed", "vehicle", "engineOn",
		"nested.deep.leaf", "tags", "nothing",
		"missing", "location.missing", "vehicle.sub", "nested.deep.leaf.too",
	}
	for _, p := range paths {
		dv, dok := doc.Lookup(p)
		rv, rok := raw.Lookup(p)
		if dok != rok {
			t.Errorf("path %q: found mismatch (doc %v, raw %v)", p, dok, rok)
			continue
		}
		if dok && Compare(Normalize(dv), Normalize(rv)) != 0 {
			t.Errorf("path %q: doc %v vs raw %v", p, FormatValue(dv), FormatValue(rv))
		}
	}
}

func TestRawGetAndDecode(t *testing.T) {
	doc := sampleDoc()
	raw := Raw(Marshal(doc))
	if raw.Get("vehicle") != "GRC-1234" {
		t.Fatalf("Get = %v", raw.Get("vehicle"))
	}
	if raw.Get("absent") != nil {
		t.Fatal("Get(absent) != nil")
	}
	back, err := raw.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if Compare(back, doc) != 0 {
		t.Fatal("Decode mismatch")
	}
}

// TestRawLookupRandomDocsProperty generates random flat documents and
// checks lookup equivalence on every field.
func TestRawLookupRandomDocsProperty(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool, seed int64) bool {
		if math.IsNaN(fl) {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		doc := NewDocument()
		doc.Set("i", i).Set("f", fl).Set("s", s).Set("b", b)
		// A few random extra fields with random kinds.
		for k := 0; k < rng.Intn(6); k++ {
			key := string(rune('a' + k))
			switch rng.Intn(4) {
			case 0:
				doc.Set(key, rng.Int63())
			case 1:
				doc.Set(key, rng.Float64())
			case 2:
				doc.Set(key, time.UnixMilli(rng.Int63n(1<<41)).UTC())
			case 3:
				doc.Set(key, A{rng.Int63(), "x"})
			}
		}
		raw := Raw(Marshal(doc))
		for _, e := range doc.Elems() {
			rv, ok := raw.Lookup(e.Key)
			if !ok || Compare(Normalize(e.Value), Normalize(rv)) != 0 {
				return false
			}
		}
		_, ok := raw.Lookup("definitely-missing")
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRawLookupRobustToCorruption(t *testing.T) {
	raw := Marshal(sampleDoc())
	// Truncations at every length must not panic.
	for n := 0; n < len(raw); n++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on truncation at %d: %v", n, r)
				}
			}()
			Raw(raw[:n]).Lookup("vehicle")
			Raw(raw[:n]).Lookup("nested.deep.leaf")
		}()
	}
	// Random byte flips must not panic either.
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 2000; trial++ {
		mutated := append([]byte{}, raw...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			mutated[rng.Intn(len(mutated))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on mutation: %v", r)
				}
			}()
			Raw(mutated).Lookup("vehicle")
			Raw(mutated).Lookup("location.coordinates")
		}()
	}
}

func TestUnmarshalRobustToCorruption(t *testing.T) {
	raw := Marshal(sampleDoc())
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		mutated := append([]byte{}, raw...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			mutated[rng.Intn(len(mutated))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on mutation: %v", r)
				}
			}()
			_, _ = Unmarshal(mutated)
		}()
	}
}

// TestRawValueReadersMatchDecodedValues holds every typed reader to
// the decoder: on each field of the sample document a reader either
// returns what Lookup decodes there, or — for a kind it does not read
// — says so.
func TestRawValueReadersMatchDecodedValues(t *testing.T) {
	doc := sampleDoc()
	doc.Set("small", int32(-7)).Set("oid", NewObjectIDGen(5).New(time.Unix(1_531_000_000, 0)))
	raw := Raw(Marshal(doc))
	for _, e := range doc.Elems() {
		v, ok := raw.LookupRaw(e.Key)
		if !ok {
			t.Fatalf("%s: LookupRaw found nothing", e.Key)
		}
		if got, want := v.Kind(), KindOf(e.Value); got != want {
			t.Fatalf("%s: kind %v, want %v", e.Key, got, want)
		}
		decoded, ok := v.Value()
		if !ok || Compare(decoded, e.Value) != 0 {
			t.Fatalf("%s: Value() = %v, %v; want %v", e.Key, decoded, ok, e.Value)
		}
		wantNum, isNum := NumericValue(e.Value)
		if got, ok := v.Numeric(); ok != isNum || got != wantNum {
			t.Fatalf("%s: Numeric() = %v, %v; want %v, %v", e.Key, got, ok, wantNum, isNum)
		}
		wantInt, isInt := e.Value.(int64)
		if got, ok := v.Int64(); ok != isInt || got != wantInt {
			t.Fatalf("%s: Int64() = %v, %v; want %v, %v", e.Key, got, ok, wantInt, isInt)
		}
		wantTime, isTime := e.Value.(time.Time)
		if got, ok := v.DateTimeMS(); ok != isTime || (isTime && got != wantTime.UnixMilli()) {
			t.Fatalf("%s: DateTimeMS() = %v, %v; want %v, %v", e.Key, got, ok, wantTime, isTime)
		}
		wantStr, isStr := e.Value.(string)
		if got, ok := v.StringBytes(); ok != isStr || string(got) != wantStr {
			t.Fatalf("%s: StringBytes() = %q, %v; want %q, %v", e.Key, got, ok, wantStr, isStr)
		}
		wantBool, isBool := e.Value.(bool)
		if got, ok := v.Bool(); ok != isBool || got != wantBool {
			t.Fatalf("%s: Bool() = %v, %v; want %v, %v", e.Key, got, ok, wantBool, isBool)
		}
		wantID, isID := e.Value.(ObjectID)
		if got, ok := v.ObjectID(); ok != isID || got != wantID {
			t.Fatalf("%s: ObjectID() = %v, %v; want %v, %v", e.Key, got, ok, wantID, isID)
		}
		lon, lat, isPoint := v.GeoPoint()
		if isPoint != (e.Key == "location") || (isPoint && (lon != 23.727539 || lat != 37.983810)) {
			t.Fatalf("%s: GeoPoint() = %v, %v, %v", e.Key, lon, lat, isPoint)
		}
	}
	if v, ok := raw.LookupRaw("nested.deep.leaf"); !ok {
		t.Fatal("dotted path not resolved")
	} else if n, ok := v.Int64(); !ok || n != 99 {
		t.Fatalf("nested.deep.leaf = %v, %v", n, ok)
	}
	for _, path := range []string{"missing", "vehicle.sub", "tags.0", "nested.deep.leaf.too"} {
		if _, ok := raw.LookupRaw(path); ok {
			t.Fatalf("LookupRaw(%q) found something", path)
		}
	}
}

// TestRawReadersRejectWhatTheDecoderRejects damages a document inside
// a value LookupRaw can still find, and checks the readers refuse it
// the way Lookup does instead of reading past the damage.
func TestRawReadersRejectWhatTheDecoderRejects(t *testing.T) {
	enc := Marshal(sampleDoc())
	for i := range enc {
		dmg := append([]byte(nil), enc...)
		dmg[i] ^= 0xFF
		raw := Raw(dmg)
		for _, path := range []string{"location", "vehicle", "nested.deep", "tags"} {
			v, found := raw.LookupRaw(path)
			_, decodes := raw.Lookup(path)
			if decodes && !found {
				t.Fatalf("byte %d: Lookup(%q) decodes a value LookupRaw does not find", i, path)
			}
			if !found {
				continue
			}
			if _, ok := v.Value(); ok != decodes {
				t.Fatalf("byte %d: %q: Value() ok=%v, Lookup ok=%v", i, path, ok, decodes)
			}
			if _, ok := v.StringBytes(); ok && !decodes {
				t.Fatalf("byte %d: %q: StringBytes read a string Lookup rejects", i, path)
			}
			if _, _, ok := v.GeoPoint(); ok && !decodes {
				t.Fatalf("byte %d: %q: GeoPoint read a document Lookup rejects", i, path)
			}
		}
	}
}
