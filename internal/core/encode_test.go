package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/geo"
)

// TestPayloadCannotReplaceComputedFields: a payload field named like a
// field the approach writes would replace the computed value (or the
// generated _id) and hide the document from its own query. Both
// encoders refuse it, naming the field; Load refuses the whole load. A name the approach does not write is an
// ordinary payload field.
func TestPayloadCannotReplaceComputedFields(t *testing.T) {
	const bad = 1000
	for _, c := range []struct {
		a   Approach
		key string
	}{
		{Hil, FieldHilbert}, {Hil, FieldDate}, {Hil, FieldLoc}, {Hil, FieldID},
		{STHash, FieldSTHash}, {BslST, FieldDate},
	} {
		t.Run(c.a.String()+"/"+c.key, func(t *testing.T) {
			recs := testRecords(2000)
			recs[bad].Fields = append(bson.D{{Key: c.key, Value: int64(5)}}, recs[bad].Fields...)
			s := openStore(t, c.a, 3)
			if _, err := s.Document(recs[bad]); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", c.key)) {
				t.Fatalf("Document: err = %v, want one naming %q", err, c.key)
			}
			err := s.Load(recs)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("record %d:", bad)) ||
				!strings.Contains(err.Error(), fmt.Sprintf("%q", c.key)) {
				t.Fatalf("Load: err = %v, want one naming record %d and %q", err, bad, c.key)
			}
			if docs, _ := s.Fingerprint(); docs != 0 {
				t.Fatalf("Load stored %d documents despite the refused record, want 0", docs)
			}
		})
	}

	// bslST writes no hilbertIndex: a payload field of that name is
	// stored, and the record is found by a query around its own point
	// and time.
	s := openStore(t, BslST, 3)
	rec := testRecords(1)[0]
	rec.Fields = bson.D{{Key: FieldHilbert, Value: int64(5)}}
	if err := s.Insert(rec); err != nil {
		t.Fatal(err)
	}
	q := STQuery{
		Rect: geo.NewRect(rec.Point.Lon-0.01, rec.Point.Lat-0.01, rec.Point.Lon+0.01, rec.Point.Lat+0.01),
		From: rec.Time.Add(-time.Minute),
		To:   rec.Time.Add(time.Minute),
	}
	if got := s.Query(q).Stats.NReturned; got != 1 {
		t.Fatalf("query around the record returned %d documents, want 1", got)
	}
}

// TestNULKeyRefusedAndStoreReopens: a NUL byte in a payload key, at
// any depth, would be encoded into bytes bson.Validate rejects — stored
// and acknowledged, then refused by journal replay, leaving the durable
// store unable to reopen. Insert refuses the record, and the store
// reopens with every acknowledged document.
func TestNULKeyRefusedAndStoreReopens(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Approach: Hil, Shards: 2, Dir: dir}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(3)
	if err := s.Insert(recs[0]); err != nil {
		t.Fatal(err)
	}
	for i, fields := range []bson.D{
		{{Key: "a\x00b", Value: "x"}},
		{{Key: "a", Value: bson.FromD(bson.D{{Key: "x\x00", Value: int64(1)}})}},
		{{Key: "a", Value: bson.A{int64(1), bson.FromD(bson.D{{Key: "\x00", Value: nil}})}}},
	} {
		rec := recs[1]
		rec.Fields = fields
		if err := s.Insert(rec); err == nil || !strings.Contains(err.Error(), "NUL") {
			t.Fatalf("case %d: Insert: err = %v, want a NUL-key refusal", i, err)
		}
		if _, _, err := s.InsertRecords(context.Background(), "", []Record{rec}); err == nil {
			t.Fatalf("case %d: InsertRecords accepted a NUL key", i)
		}
	}
	if err := s.Insert(recs[2]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDir(dir, cfg)
	if err != nil {
		t.Fatalf("reopening after the refused inserts: %v", err)
	}
	defer r.Close()
	if docs, _ := r.Fingerprint(); docs != 2 {
		t.Fatalf("reopened store holds %d documents, want 2", docs)
	}
}

// TestEncodeRecordAllocatesOnce: the appender's one allocation is the
// document it returns.
func TestEncodeRecordAllocatesOnce(t *testing.T) {
	s, err := newStore(Config{Approach: Hil}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	rec := benchRecord()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := s.encode(rec); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("encode allocates %v times per record, want 1", n)
	}
}

// encoderPairs opens, per approach, a reference store and an encoding
// store seeded alike (hil* gets the test extent): as long as both see
// the same records in the same order, they draw the same ObjectIDs.
func encoderPairs(t testing.TB) (refs, encs []*Store) {
	for _, a := range AllApproaches() {
		cfg := Config{Approach: a, DataExtent: testExtent, Seed: 7}.withDefaults()
		ref, err := newStore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := newStore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		refs, encs = append(refs, ref), append(encs, enc)
	}
	return refs, encs
}

// checkEncoders holds the appender to the boxed reference on one
// record under every approach: encode returns exactly
// bson.Marshal(Document(rec)), ObjectID included, in one exact-size
// slice that bson.Validate accepts — or both refuse the record with
// the same error. It reports whether the record was accepted.
func checkEncoders(t *testing.T, refs, encs []*Store, rec Record) (accepted bool) {
	t.Helper()
	for i := range refs {
		a := refs[i].cfg.Approach
		doc, derr := refs[i].Document(rec)
		raw, eerr := encs[i].encode(rec)
		if (derr == nil) != (eerr == nil) || derr != nil && derr.Error() != eerr.Error() {
			t.Fatalf("%s: Document err = %v, encode err = %v", a, derr, eerr)
		}
		if derr != nil {
			continue
		}
		accepted = true
		if want := bson.Marshal(doc); !bytes.Equal(raw, want) {
			t.Fatalf("%s: encode\n%x\nbson.Marshal(Document)\n%x", a, raw, want)
		}
		if len(raw) != cap(raw) {
			t.Fatalf("%s: len %d, cap %d", a, len(raw), cap(raw))
		}
		if _, err := bson.Validate(raw); err != nil {
			t.Fatalf("%s: encoded document does not validate: %v", a, err)
		}
	}
	return accepted
}

// TestEncodeRecordHostile runs checkEncoders over records built to
// catch the appender out: repeated and empty keys, every numeric kind
// and the awkward floats, nesting, nil, times before the epoch, with
// sub-millisecond parts or in another zone, points on the extent's and
// the globe's edges, and the keys both encoders must refuse.
func TestEncodeRecordHostile(t *testing.T) {
	refs, encs := encoderPairs(t)
	pre := time.Date(1931, 5, 6, 7, 8, 9, 999_999_999, time.UTC)
	zoned := time.Date(2018, 7, 1, 23, 59, 59, 500_000, time.FixedZone("EEST", 3*3600))
	nested := bson.FromD(bson.D{{Key: "k", Value: bson.A{int64(1), nil, bson.FromD(bson.D{{Key: "", Value: -0.0}})}}})
	valid := []Record{
		{Point: testExtent.Min, Time: testStart, Fields: bson.D{{Key: "a", Value: 1}, {Key: "b", Value: 2}, {Key: "a", Value: int32(3)}}},
		{Point: testExtent.Max, Time: pre, Fields: bson.D{{Key: "", Value: nil}, {Key: "", Value: "x"}}},
		{Point: geo.Point{Lon: 180, Lat: -90}, Time: zoned, Fields: bson.D{{Key: "nan", Value: math.NaN()}, {Key: "neg0", Value: math.Copysign(0, -1)}}},
		{Point: geo.Point{Lon: -180, Lat: 90}, Time: time.Unix(-1, 1).In(time.FixedZone("W", -5*3600)), Fields: bson.D{{Key: "doc", Value: nested}, {Key: "arr", Value: bson.A{}}}},
		{Point: geo.Point{Lon: math.Copysign(0, -1)}, Time: time.Unix(0, 0), Fields: bson.D{{Key: "t", Value: zoned}, {Key: "id", Value: bson.ObjectID{1}}, {Key: "min", Value: bson.MinKey}}},
		{Point: geo.Point{Lon: 30, Lat: 45}, Time: testStart, Fields: bson.D{{Key: FieldHilbert, Value: "bsl"}, {Key: FieldSTHash, Value: "bsl"}}},
	}
	for i, rec := range valid {
		if !checkEncoders(t, refs, encs, rec) {
			t.Fatalf("record %d refused by every approach", i)
		}
	}
	refused := []Record{
		{Point: geo.Point{Lon: math.NaN()}, Time: testStart},
		{Point: geo.Point{Lon: 181}, Time: testStart},
		{Point: testExtent.Min, Time: testStart, Fields: bson.D{{Key: "a", Value: 1}, {Key: FieldID, Value: "mine"}}},
		{Point: testExtent.Min, Time: testStart, Fields: bson.D{{Key: FieldLoc, Value: 5}}},
		{Point: testExtent.Min, Time: testStart, Fields: bson.D{{Key: FieldDate, Value: testStart}}},
		{Point: testExtent.Min, Time: testStart, Fields: bson.D{{Key: "a\x00", Value: 1}}},
		{Point: testExtent.Min, Time: testStart, Fields: bson.D{{Key: "a", Value: bson.A{bson.FromD(bson.D{{Key: "\x00", Value: 1}})}}}},
	}
	for i, rec := range refused {
		if checkEncoders(t, refs, encs, rec) {
			t.Fatalf("refused record %d accepted by some approach", i)
		}
	}
}

// FuzzEncodeRecord runs checkEncoders over records built from the
// fuzz input (see fuzzRecord), starting from generated records and the
// hostile kinds TestEncodeRecordHostile lists.
func FuzzEncodeRecord(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 24; i++ {
		seed := make([]byte, 8+rng.Intn(160))
		rng.Read(seed)
		seed[0] = byte(i) // every point choice, a generated record first
		f.Add(seed)
	}
	refs, encs := encoderPairs(f)
	generated := benchRecord()
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEncoders(t, refs, encs, fuzzRecord(&fuzzBytes{data: data}, generated))
	})
}

// fuzzBytes reads a fuzz input as a stream of choices; past its end
// every choice is zero.
type fuzzBytes struct{ data []byte }

func (r *fuzzBytes) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *fuzzBytes) u64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = r.byte()
	}
	return binary.LittleEndian.Uint64(b[:])
}

// fuzzKeys is the small key pool payload fields draw from, so keys
// repeat often: ordinary, empty, reserved under some approach, and
// holding a NUL byte.
var fuzzKeys = []string{
	"a", "b", "speed", "payloadField00", "", "a\x00b", "x\x00",
	FieldID, FieldLoc, FieldDate, FieldHilbert, FieldSTHash,
	"vehicleId", "c", "d", "\x00",
}

// fuzzRecord builds a record from the input's choices: a point and a
// time from a hostile menu, then payload fields with keys from
// fuzzKeys and values of every kind the encoders take. Choice 0 starts
// from the generated benchmark record instead.
func fuzzRecord(r *fuzzBytes, generated Record) Record {
	var rec Record
	switch r.byte() % 6 {
	case 0:
		rec = generated
		rec.Fields = append(bson.D(nil), generated.Fields...)
		rec.Point.Lon += float64(r.byte()) / 256
	case 1:
		rec.Point = testExtent.Min
	case 2:
		rec.Point = testExtent.Max
	case 3:
		rec.Point = geo.Point{Lon: 180, Lat: -90}
	case 4:
		rec.Point = geo.Point{Lon: math.Copysign(0, -1), Lat: math.Copysign(0, -1)}
	case 5:
		rec.Point = geo.Point{Lon: math.Float64frombits(r.u64()), Lat: math.Float64frombits(r.u64())}
	}
	if rec.Time.IsZero() {
		rec.Time = fuzzTime(r)
	}
	for n := int(r.byte() % 10); n > 0; n-- {
		e := bson.Elem{Key: fuzzKeys[r.byte()%byte(len(fuzzKeys))], Value: fuzzValue(r, 2)}
		if r.byte()%2 == 0 {
			rec.Fields = append(rec.Fields, e)
		} else {
			rec.Fields = append(bson.D{e}, rec.Fields...)
		}
	}
	return rec
}

// fuzzTime picks a time before or after the epoch, with or without a
// sub-millisecond part, in UTC or another zone.
func fuzzTime(r *fuzzBytes) time.Time {
	b := r.byte()
	sec := int64(r.u64()%(1<<36)) - 1<<35 // about ±1 000 years
	var ns int64
	if b&1 != 0 {
		ns = int64(r.u64() % 1e9)
	}
	t := time.Unix(sec, ns)
	if b&2 != 0 {
		return t.In(time.FixedZone("fuzz", int(int8(r.byte()))*15*60))
	}
	return t.UTC()
}

// fuzzValue returns a payload value of any kind the encoders accept,
// embedded documents and arrays nested up to depth levels.
func fuzzValue(r *fuzzBytes, depth int) any {
	switch k := r.byte() % 14; k {
	case 0:
		return nil
	case 1:
		return r.byte()%2 == 0
	case 2:
		return int(int64(r.u64()))
	case 3:
		return int32(r.u64())
	case 4:
		return int64(r.u64())
	case 5:
		return math.Float64frombits(r.u64())
	case 6:
		return []float64{math.NaN(), math.Copysign(0, -1), math.Inf(-1)}[r.byte()%3]
	case 7:
		return strings.Repeat("s\x00", int(r.byte()%4))
	case 8:
		return fuzzTime(r)
	case 9:
		var id bson.ObjectID
		binary.LittleEndian.PutUint64(id[:], r.u64())
		return id
	case 10:
		return []any{bson.MinKey, bson.MaxKey}[r.byte()%2]
	case 11, 12:
		if depth == 0 {
			return "leaf"
		}
		n := int(r.byte() % 4)
		if k == 11 {
			doc := bson.NewDocument()
			for ; n > 0; n-- {
				doc.Set(fuzzKeys[r.byte()%byte(len(fuzzKeys))], fuzzValue(r, depth-1))
			}
			return doc
		}
		arr := bson.A{}
		for ; n > 0; n-- {
			arr = append(arr, fuzzValue(r, depth-1))
		}
		return arr
	default:
		return fmt.Sprint(r.byte())
	}
}
