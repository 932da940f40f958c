package query

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/keyenc"
)

// The reference matchers below are the predicates as they were before
// the raw read layer: look the field up (decoding it), normalise, and
// compare boxed values with bson.Compare. FuzzRawMatch holds the typed
// matchers to them on every input, decodable or not.

func refMatches(f Filter, doc bson.Doc) bool {
	switch t := f.(type) {
	case Cmp:
		v, ok := doc.Lookup(t.Field)
		if !ok {
			return false
		}
		v = bson.Normalize(v)
		if bson.CanonicalClass(v) != bson.CanonicalClass(bson.Normalize(t.Value)) {
			return false
		}
		cmp := bson.Compare(v, t.Value)
		switch t.Op {
		case OpEQ:
			return cmp == 0
		case OpGT:
			return cmp > 0
		case OpGTE:
			return cmp >= 0
		case OpLT:
			return cmp < 0
		default:
			return cmp <= 0
		}
	case In:
		v, ok := doc.Lookup(t.Field)
		if !ok {
			return false
		}
		for _, want := range t.Values {
			if bson.Compare(bson.Normalize(v), bson.Normalize(want)) == 0 {
				return true
			}
		}
		return false
	case GeoWithin:
		p, ok := refPoint(doc, t.Field)
		return ok && t.Rect.Contains(p)
	case And:
		for _, c := range t.Children {
			if !refMatches(c, doc) {
				return false
			}
		}
		return true
	case Or:
		for _, c := range t.Children {
			if refMatches(c, doc) {
				return true
			}
		}
		return false
	}
	panic("refMatches: unknown filter")
}

func refPoint(doc bson.Doc, field string) (geo.Point, bool) {
	v, ok := doc.Lookup(field)
	if !ok {
		return geo.Point{}, false
	}
	return geo.PointFromGeoJSON(v)
}

// refKey is the sort/distinct key as it was encoded before: from the
// decoded, normalised value; a field that is missing (or does not
// decode) has none.
func refKey(raw bson.Raw, field string) ([]byte, bool) {
	v, ok := raw.Lookup(field)
	if !ok {
		return nil, false
	}
	return keyenc.AppendValue(nil, bson.Normalize(v)), true
}

// fuzzFields are the paths the seed documents populate (and, after
// mutation, populate wrongly), plus ones they never have.
var fuzzFields = []string{
	"num", "i32", "i64", "s", "date", "ok", "id", "nul", "location",
	"n.x", "n.loc", "n.x.y", "arr", "sub", "missing", "",
}

// fuzzFilters is every predicate over one field, each constant kind
// and each operator, plus composites.
func fuzzFilters(field string, num float64, n int64, s string, lon, lat, span float64) []Filter {
	var oid bson.ObjectID
	copy(oid[:], s)
	constants := []any{
		num, n, int32(n), int(n), s, n%2 == 0, nil, oid,
		time.UnixMilli(n), time.Unix(0, n), // whole and fractional milliseconds
		bson.A{num, s}, bson.FromD(bson.D{{Key: "y", Value: n}}),
		bson.MinKey, bson.MaxKey,
	}
	rect := geo.NewRect(lon, lat, lon+span, lat+span)
	var fs []Filter
	for _, k := range constants {
		for op := OpEQ; op <= OpLTE; op++ {
			fs = append(fs, Cmp{Field: field, Op: op, Value: k})
		}
	}
	fs = append(fs,
		In{Field: field, Values: constants},
		In{Field: field},
		GeoWithin{Field: field, Rect: rect},
	)
	// Composites, and through them And/Or over compiled children.
	return append(fs,
		NewAnd(fs[0], fs[len(fs)-1]),
		NewOr(fs[1], fs[len(fs)/2]),
		NewAnd(GeoWithin{Field: "location", Rect: rect}, TimeRangeFilter("date", time.UnixMilli(n), time.UnixMilli(n).Add(time.Hour))),
		And{}, Or{},
	)
}

// fuzzSeedDocs are the layouts the raw readers must agree with the
// decoder on: the canonical document, every coordinate kind, extra and
// reordered GeoJSON fields, wrong types, missing fields, nesting.
func fuzzSeedDocs() [][]byte {
	at := time.UnixMilli(1_531_000_000_123).UTC()
	point := func(coords bson.A) *bson.Document {
		return bson.FromD(bson.D{{Key: "type", Value: "Point"}, {Key: "coordinates", Value: coords}})
	}
	full := func(loc any) *bson.Document {
		return bson.FromD(bson.D{
			{Key: "id", Value: bson.NewObjectIDGen(3).New(at)},
			{Key: "location", Value: loc},
			{Key: "date", Value: at},
			{Key: "num", Value: 23.72}, {Key: "i32", Value: int32(-5)}, {Key: "i64", Value: int64(1) << 40},
			{Key: "s", Value: "αθήνα\x00nul"}, {Key: "ok", Value: true}, {Key: "nul", Value: nil},
			{Key: "n", Value: bson.FromD(bson.D{
				{Key: "x", Value: int64(7)},
				{Key: "loc", Value: point(bson.A{int32(23), int64(38)})},
			})},
			{Key: "arr", Value: bson.A{1.5, "two", bson.A{int64(3)}}},
			{Key: "sub", Value: bson.FromD(bson.D{{Key: "y", Value: int64(9)}})},
			{Key: "min", Value: bson.MinKey}, {Key: "max", Value: bson.MaxKey},
		})
	}
	docs := []*bson.Document{
		full(point(bson.A{23.72, 37.98})),
		full(point(bson.A{int32(23), 37.98})),
		full(point(bson.A{int64(23), int64(38)})),
		full(point(bson.A{23.72})),
		full(point(bson.A{23.72, 37.98, 1.0})),
		full(point(bson.A{23.72, "north"})),
		full(bson.FromD(bson.D{ // reordered, with extras on every side
			{Key: "crs", Value: "EPSG:4326"},
			{Key: "coordinates", Value: bson.A{23.72, 37.98}},
			{Key: "bbox", Value: bson.A{23.0, 37.0, 24.0, 38.0}},
			{Key: "type", Value: "Point"},
			{Key: "type", Value: "Polygon"},
		})),
		full(bson.FromD(bson.D{{Key: "type", Value: "Polygon"}, {Key: "coordinates", Value: bson.A{23.72, 37.98}}})),
		full(bson.FromD(bson.D{{Key: "type", Value: int64(1)}, {Key: "coordinates", Value: bson.A{23.72, 37.98}}})),
		full(bson.FromD(bson.D{{Key: "coordinates", Value: bson.A{23.72, 37.98}}})),
		full(bson.FromD(bson.D{{Key: "type", Value: "Point"}, {Key: "coordinates", Value: "23.72,37.98"}})),
		full("23.72,37.98"),
		full(bson.A{23.72, 37.98}),
		bson.FromD(bson.D{{Key: "date", Value: "yesterday"}, {Key: "num", Value: "23"}, {Key: "s", Value: 5.0}, {Key: "n", Value: int64(1)}}),
		bson.NewDocument(),
	}
	var out [][]byte
	for _, d := range docs {
		enc := bson.Marshal(d)
		out = append(out, enc, enc[:len(enc)/2], enc[:len(enc)-1])
	}
	// The canonical document with each byte of its first 96 damaged:
	// tags, key bytes, length prefixes and terminators all get hit.
	base := out[0]
	for i := 0; i < 96 && i < len(base); i++ {
		dmg := bytes.Clone(base)
		dmg[i] ^= 0x13
		out = append(out, dmg)
	}
	return out
}

// fuzzLocationField selects "location" in fuzzFields.
const fuzzLocationField = uint8(8)

// fuzzPointSeeds cover RawValue.GeoPoint's in-place read of the
// canonical point and its boundary with the general walk: documents
// whose location is exactly the stored frame — ordinary, extreme and
// non-finite coordinates — and every one-bit neighbour of the frame's
// constant bytes (a length, tag, key or terminator one bit off must
// fall back to the walk and be judged exactly as the decoder judges it).
func fuzzPointSeeds() [][]byte {
	var out [][]byte
	for _, p := range []geo.Point{
		{Lon: 23.72, Lat: 37.98}, {Lon: 23.5, Lat: 37.5}, {Lon: -180, Lat: -90}, {},
		{Lon: math.Copysign(0, -1), Lat: math.MaxFloat64},
		{Lon: math.NaN(), Lat: 37.98}, {Lon: 23.72, Lat: math.NaN()},
		{Lon: math.Inf(1), Lat: math.Inf(-1)}, {Lon: math.Inf(-1), Lat: 37.98},
	} {
		out = append(out, bson.Marshal(bson.FromD(bson.D{{Key: "location", Value: geo.GeoJSONPoint(p)}})))
	}
	// The frame starts after the outer length, the tag and "location\x00".
	const frame = 4 + 1 + 9
	base := out[0]
	for i := 0; i < 61; i++ {
		if i >= 40 && i < 48 || i >= 51 && i < 59 {
			continue // the coordinates themselves
		}
		for bit := 0; bit < 8; bit++ {
			dmg := bytes.Clone(base)
			dmg[frame+i] ^= 1 << bit
			out = append(out, dmg)
		}
	}
	return out
}

// FuzzRawMatch is the differential behind the raw read layer. For any
// bytes, any of the probed fields and any predicate constants:
//
//   - no matcher, sort-key or aggregate encoder panics;
//   - every filter answers the same for the bytes as bson.Raw, as the
//     executor's *bson.Raw, compiled or not, and equals the reference
//     (decode-then-compare) matcher on the same bytes;
//   - when the bytes decode, the filter answers the same for the
//     decoded document;
//   - the raw sort-key and aggregate encoders produce the bytes
//     keyenc.AppendValue(bson.Normalize(Lookup(field))) produces.
func FuzzRawMatch(f *testing.F) {
	for _, seed := range fuzzSeedDocs() {
		for i := range fuzzFields {
			f.Add(seed, uint8(i), 23.72, int64(1_531_000_000_123), "αθήνα\x00nul", 23.0, 37.0, 1.0)
		}
	}
	if fuzzFields[fuzzLocationField] != "location" {
		f.Fatal("fuzzLocationField does not select location")
	}
	for _, seed := range fuzzPointSeeds() {
		f.Add(seed, fuzzLocationField, 23.72, int64(1_531_000_000_123), "", 23.0, 37.0, 1.0)
	}
	f.Add([]byte{}, uint8(0), 0.0, int64(0), "", 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, data []byte, fieldSel uint8, num float64, n int64, s string, lon, lat, span float64) {
		raw := bson.Raw(data)
		doc, err := bson.Unmarshal(data)
		decodes := err == nil
		field := fuzzFields[int(fieldSel)%len(fuzzFields)]
		for _, flt := range fuzzFilters(field, num, n, s, lon, lat, span) {
			want := refMatches(flt, raw)
			compiled := compile(flt)
			for name, got := range map[string]bool{
				"Matches(bson.Raw)":           flt.Matches(raw),
				"Matches(*bson.Raw)":          flt.Matches(&raw),
				"compiled Matches(bson.Raw)":  compiled.Matches(raw),
				"compiled Matches(*bson.Raw)": compiled.Matches(&raw),
			} {
				if got != want {
					t.Fatalf("%s: %s = %v, reference %v\ndoc %x", flt, name, got, want, data)
				}
			}
			if decodes {
				if got := flt.Matches(doc); got != want {
					t.Fatalf("%s: decoded document matches %v, its bytes %v\ndoc %x", flt, got, want, data)
				}
				if got := compiled.Matches(doc); got != want {
					t.Fatalf("%s: compiled filter matches the decoded document %v, its bytes %v\ndoc %x", flt, got, want, data)
				}
			}
		}
		key, present := refKey(raw, field)
		wantSort := key
		if !present {
			wantSort = keyenc.AppendValue(nil, nil)
		}
		if got := appendSortKey(nil, raw, field); !bytes.Equal(got, wantSort) {
			t.Fatalf("sort key of %q = %x, want %x\ndoc %x", field, got, wantSort, data)
		}
		wantDistinct := &AggResult{Kind: AggDistinct, Count: 1}
		if present {
			wantDistinct.Distinct = [][]byte{key}
		}
		if got := AggregateDocs([]bson.Raw{raw}, AggSpec{Kind: AggDistinct, Field: field}); !got.Equal(wantDistinct) {
			t.Fatalf("distinct of %q = %+v, want %+v\ndoc %x", field, got, wantDistinct, data)
		}
		wantCells := &AggResult{Kind: AggCellHist, Count: 1}
		if v, ok := raw.Lookup(field); ok {
			if cell, ok := bson.Normalize(v).(int64); ok {
				wantCells.Cells = []CellCount{{Cell: uint64(cell) >> 3, Count: 1}}
			}
		}
		if got := AggregateDocs([]bson.Raw{raw}, AggSpec{Kind: AggCellHist, Field: field, Shift: 3}); !got.Equal(wantCells) {
			t.Fatalf("cell histogram of %q = %+v, want %+v\ndoc %x", field, got, wantCells, data)
		}
	})
}
