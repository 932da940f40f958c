package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/sfc"
	"repro/internal/sthash"
)

func TestFrameRoundTrip(t *testing.T) {
	bodies := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)}
	for _, body := range bodies {
		enc := AppendFrame(nil, OpQuery, body)
		op, got, size, ok := DecodeFrame(enc)
		if !ok || op != OpQuery || size != len(enc) || !bytes.Equal(got, body) {
			t.Fatalf("DecodeFrame(%d bytes) = op %d, %d bytes, size %d, ok %v", len(body), op, len(got), size, ok)
		}

		var buf bytes.Buffer
		if err := WriteFrame(&buf, OpQuery, body); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), enc) {
			t.Fatalf("WriteFrame and AppendFrame disagree for %d-byte body", len(body))
		}
		op, got, err := ReadFrame(&buf)
		if err != nil || op != OpQuery || !bytes.Equal(got, body) {
			t.Fatalf("ReadFrame = op %d, %d bytes, err %v", op, len(got), err)
		}
	}
}

func TestFrameBackToBack(t *testing.T) {
	var stream []byte
	stream = AppendFrame(stream, OpPing, nil)
	stream = AppendFrame(stream, OpQuery, []byte("abc"))
	var buf bytes.Buffer
	buf.Write(stream)

	op, _, err := ReadFrame(&buf)
	if err != nil || op != OpPing {
		t.Fatalf("first frame: op %d err %v", op, err)
	}
	op, body, err := ReadFrame(&buf)
	if err != nil || op != OpQuery || string(body) != "abc" {
		t.Fatalf("second frame: op %d body %q err %v", op, body, err)
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("expected clean EOF, got %v", err)
	}
}

func TestFrameCorruption(t *testing.T) {
	enc := AppendFrame(nil, OpQuery, []byte("hello world"))

	// Any single flipped bit in the payload must fail the checksum.
	for i := frameHeaderSize; i < len(enc); i++ {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x40
		if _, _, _, ok := DecodeFrame(bad); ok {
			t.Fatalf("DecodeFrame accepted frame with byte %d flipped", i)
		}
		if _, _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("ReadFrame(byte %d flipped) = %v, want ErrBadFrame", i, err)
		}
	}

	// Every truncation must fail without panicking.
	for i := 0; i < len(enc); i++ {
		if _, _, _, ok := DecodeFrame(enc[:i]); ok {
			t.Fatalf("DecodeFrame accepted %d-byte truncation", i)
		}
		if _, _, err := ReadFrame(bytes.NewReader(enc[:i])); err == nil {
			t.Fatalf("ReadFrame accepted %d-byte truncation", i)
		}
	}

	// A mid-payload truncation is a torn frame, not a clean EOF.
	if _, _, err := ReadFrame(bytes.NewReader(enc[:len(enc)-3])); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("torn frame: %v, want ErrBadFrame", err)
	}

	// An oversized length prefix must be rejected before any allocation.
	huge := append([]byte(nil), enc...)
	huge[0], huge[1], huge[2], huge[3] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, _, _, ok := DecodeFrame(huge); ok {
		t.Fatal("DecodeFrame accepted oversized length")
	}
	if _, _, err := ReadFrame(bytes.NewReader(huge)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized length: %v, want ErrBadFrame", err)
	}

	// Zero length (no op byte) is invalid.
	zero := make([]byte, frameHeaderSize)
	if _, _, err := ReadFrame(bytes.NewReader(zero)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("zero length: %v, want ErrBadFrame", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	in := Hello{Version: ProtocolVersion, Nonce: []byte{1, 2, 3, 4}}
	out, err := DecodeHello(in.Encode(nil))
	if err != nil || out.Version != in.Version || !bytes.Equal(out.Nonce, in.Nonce) {
		t.Fatalf("got %+v, %v", out, err)
	}

	reply := HelloReply{
		Version: 1, Docs: 12345, Checksum: 0xDEADBEEFCAFE, ShardIDs: []int32{0, 2, 5},
		AuthRequired: true, Nonce: []byte{9, 8, 7}, Proof: []byte{6, 5},
	}
	gotReply, err := DecodeHelloReply(reply.Encode(nil))
	if err != nil || !reflect.DeepEqual(gotReply, reply) {
		t.Fatalf("got %+v, %v", gotReply, err)
	}
}

func TestInsertRoundTrip(t *testing.T) {
	in := Insert{BatchID: "client-7/batch-42", Docs: [][]byte{{1, 2, 3}, {4}, {}}}
	out, err := DecodeInsert(in.Encode(nil))
	if err != nil || out.BatchID != in.BatchID || len(out.Docs) != len(in.Docs) {
		t.Fatalf("got %+v, %v", out, err)
	}
	for i := range in.Docs {
		if !bytes.Equal(out.Docs[i], in.Docs[i]) {
			t.Fatalf("doc %d: got %v want %v", i, out.Docs[i], in.Docs[i])
		}
	}

	reply := InsertReply{Applied: 3, Dup: false, LastLSN: 77}
	gotReply, err := DecodeInsertReply(reply.Encode(nil))
	if err != nil || gotReply != reply {
		t.Fatalf("got %+v, %v", gotReply, err)
	}
}

func TestAuthProof(t *testing.T) {
	secret := []byte("s3cret")
	nonce := NewAuthNonce()
	proof := AuthProof(secret, AuthRoleClient, nonce)
	if !VerifyAuthProof(secret, AuthRoleClient, nonce, proof) {
		t.Fatal("valid proof rejected")
	}
	if VerifyAuthProof(secret, AuthRoleServer, nonce, proof) {
		t.Fatal("role confusion: client proof accepted for server role")
	}
	if VerifyAuthProof([]byte("wrong"), AuthRoleClient, nonce, proof) {
		t.Fatal("proof accepted under wrong secret")
	}
	if VerifyAuthProof(secret, AuthRoleClient, NewAuthNonce(), proof) {
		t.Fatal("proof accepted for a different nonce")
	}
}

func TestQueryRoundTrip(t *testing.T) {
	in := Query{
		Shard:     3,
		BatchSize: 512,
		Limit:     100,
		OrderBy:   "date",
		Desc:      true,
		Filter: &query.Spec{
			Rect: geo.NewRect(23, 37, 25, 39),
			From: time.Date(2018, 7, 1, 0, 0, 0, 0, time.UTC),
			To:   time.Date(2018, 8, 1, 0, 0, 0, 0, time.UTC),
		},
	}
	body, err := in.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeQuery(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
	opts := out.Opts()
	if opts.Limit != 100 || opts.OrderBy != "date" || !opts.Desc {
		t.Fatalf("Opts() = %+v", opts)
	}
}

// TestFilterRoundTrip: every kind of spec travels unchanged —
// without a key constraint, with Hilbert ranges up to 2^53 - 1 or an
// empty Hilbert cover, with ST-Hash ranges or an empty ST-Hash cover —
// and a prepared spec travels as the spec inside it.
func TestFilterRoundTrip(t *testing.T) {
	rect := geo.NewRect(-10, -20, 10, 20)
	from, to := time.Date(2018, 7, 1, 0, 0, 0, 0, time.UTC), time.Date(2018, 7, 1, 3, 0, 0, 123456789, time.UTC)
	specs := []*query.Spec{
		{Rect: rect, From: from, To: to},
		{Rect: rect, From: to, To: from},
		{Rect: rect, From: from, To: to, Key: query.HilbertKey,
			Cells: []sfc.Range{{Lo: 0, Hi: 0}, {Lo: 2, Hi: 9}, {Lo: 1<<53 - 2, Hi: 1<<53 - 1}}},
		{Rect: rect, From: from, To: to, Key: query.HilbertKey},
		{Rect: rect, From: from, To: to, Key: query.STHashKey,
			Strings: []sthash.Range{{Lo: "2018182sw800", Hi: "2018182sw823"}, {Lo: "2018182sw900", Hi: "2018182sw900"}, {Lo: "2018183", Hi: "2018183\x00"}}},
		{Rect: rect, From: from, To: to, Key: query.STHashKey},
	}
	for _, s := range specs {
		enc, err := Query{Filter: s}.Encode(nil)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		dec, err := DecodeQuery(enc)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if !reflect.DeepEqual(dec.Filter, query.Filter(s)) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", s, dec.Filter)
		}
		if prep, err := (Query{Filter: query.Prepare(s)}).Encode(nil); err != nil || !bytes.Equal(prep, enc) {
			t.Fatalf("%s prepared encodes as %x (%v), bare as %x", s, prep, err, enc)
		}
	}
	if _, err := (Query{Filter: nil}).Encode(nil); err == nil {
		t.Fatal("a query without a spec encoded")
	}
}

// TestKeyRangesRefusedOutOfOrder: cover ranges travel only ascending
// and disjoint, Hilbert ones below 2^53. The encoder writes what it is
// given; the decoder refuses a gap or span that overlaps, wraps or
// reaches 2^53, string ranges out of order, and an unknown key kind.
func TestKeyRangesRefusedOutOfOrder(t *testing.T) {
	var bad []*query.Spec
	for _, rs := range [][]sfc.Range{
		{{Lo: 5, Hi: 9}, {Lo: 9, Hi: 12}},
		{{Lo: 5, Hi: 9}, {Lo: 2, Hi: 3}},
		{{Lo: 5, Hi: 4}},
		{{Lo: 1 << 53, Hi: 1 << 53}},
		{{Lo: 7, Hi: 1<<64 - 1}},
	} {
		bad = append(bad, &query.Spec{Key: query.HilbertKey, Cells: rs})
	}
	for _, rs := range [][]sthash.Range{
		{{Lo: "b", Hi: "c"}, {Lo: "a", Hi: "d"}},
		{{Lo: "b", Hi: "c"}, {Lo: "c", Hi: "d"}},
		{{Lo: "z", Hi: "a"}},
	} {
		bad = append(bad, &query.Spec{Key: query.STHashKey, Strings: rs})
	}
	bad = append(bad, &query.Spec{Key: query.STHashKey + 1})
	for _, s := range bad {
		body, err := Query{Filter: s}.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if m, err := DecodeQuery(body); !errors.Is(err, ErrBadMessage) {
			t.Errorf("%+v decoded to %v (%v)", s, m.Filter, err)
		}
	}
}

// TestFilterRefusesRetiredTag: version 10 retired the filter tree and
// its tags. A version-9 request — its filter the tree of a $geoWithin
// — is refused, not misread as a spec.
func TestFilterRefusesRetiredTag(t *testing.T) {
	// The header is version 9's: everything before the spec's 49 bytes.
	full, err := Query{Filter: &query.Spec{}}.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	body := append(full[:len(full)-49], 5) // the retired $geoWithin tag
	body = appendString(body, "location")
	for _, v := range []float64{23, 37, 25, 39} {
		body = appendF64(body, v)
	}
	if m, err := DecodeQuery(body); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("a version-9 tree decoded to %v (%v), want ErrBadMessage", m.Filter, err)
	}
}

func TestQueryReplyRoundTrip(t *testing.T) {
	in := QueryReply{
		More:         true,
		KeysExamined: 10,
		DocsExamined: 9,
		NReturned:    8,
		DurationNS:   1234567,
		IndexUsed:    "st_btree",
		Docs:         [][]byte{[]byte("doc-one"), []byte("doc-two"), {}},
		Keys:         [][]byte{[]byte("k1"), []byte("k2"), []byte("k3")},
	}
	out, err := DecodeQueryReply(in.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	// Empty byte strings decode as nil slices; compare element-wise.
	if out.More != in.More || out.IndexUsed != in.IndexUsed || len(out.Docs) != len(in.Docs) || len(out.Keys) != len(in.Keys) {
		t.Fatalf("got %+v", out)
	}
	for i := range in.Docs {
		if !bytes.Equal(out.Docs[i], in.Docs[i]) || !bytes.Equal(out.Keys[i], in.Keys[i]) {
			t.Fatalf("doc/key %d mismatch", i)
		}
	}
	st := out.Stats()
	if st.KeysExamined != 10 || st.DocsExamined != 9 || st.NReturned != 8 || st.IndexUsed != "st_btree" || st.Duration != 1234567*time.Nanosecond {
		t.Fatalf("Stats() = %+v", st)
	}

	// Unordered reply: no keys at all.
	in.Keys = nil
	out, err = DecodeQueryReply(in.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.Keys != nil {
		t.Fatalf("expected nil keys, got %v", out.Keys)
	}
}

func TestSmallMessageRoundTrips(t *testing.T) {
	er := ErrorReply{Shard: 4, Transient: true, Message: "shard 4: replica offline"}
	if out, err := DecodeErrorReply(er.Encode(nil)); err != nil || out != er {
		t.Fatalf("ErrorReply: %+v, %v", out, err)
	}
	shed := ErrorReply{Shard: -1, Transient: true, Code: ErrCodeOverload,
		RetryAfterNS: int64(25 * time.Millisecond), Message: "overloaded"}
	if out, err := DecodeErrorReply(shed.Encode(nil)); err != nil || out != shed {
		t.Fatalf("overload ErrorReply: %+v, %v", out, err)
	}
	sr := StatsReply{ShardIDs: []int32{0, 1}, Docs: []int64{500, 700}, Cursors: 3,
		State: StateDraining, InFlight: 2, Shed: 17, HeapInuse: 1 << 20}
	if out, err := DecodeStatsReply(sr.Encode(nil)); err != nil || !reflect.DeepEqual(out, sr) {
		t.Fatalf("StatsReply: %+v, %v", out, err)
	}
}

func TestSTQueryRoundTrip(t *testing.T) {
	in := STQuery{
		MinLon: 23.5, MinLat: 37.5, MaxLon: 24.5, MaxLat: 38.5,
		FromNS: 1_530_000_000_000_000_000, ToNS: 1_540_000_000_000_000_000,
		Limit: 50, Sort: 2,
	}
	if out, err := DecodeSTQuery(in.Encode(nil)); err != nil || out != in {
		t.Fatalf("STQuery: %+v, %v", out, err)
	}

	// Its answer is QueryReply frames; the first carries the routed
	// section.
	reply := QueryReply{
		More:         true,
		KeysExamined: 100,
		DocsExamined: 90,
		NReturned:    2,
		DurationNS:   5555,
		Routed:       &Routed{Nodes: 3, Broadcast: true, Partial: true, FailedShards: []int32{2}, ShardsPruned: 1},
		Docs:         [][]byte{[]byte("d1"), []byte("d2")},
	}
	out, err := DecodeQueryReply(reply.Encode(nil))
	if err != nil || !reflect.DeepEqual(out, reply) {
		t.Fatalf("routed QueryReply: %+v, %v", out, err)
	}
}

func TestDecodeRejectsHostileCounts(t *testing.T) {
	// A QueryReply body claiming 2^31 docs in a handful of bytes must be
	// rejected by count validation, not attempted as an allocation.
	var body []byte
	body = appendBool(body, false) // more
	for i := 0; i < 4; i++ {       // four i64 counters
		body = appendI64(body, 0)
	}
	body = appendString(body, "")   // index used
	body = appendU32(body, 1<<31-1) // hostile doc count
	if _, err := DecodeQueryReply(body); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("hostile count: %v, want ErrBadMessage", err)
	}

	// Trailing garbage after a valid message is an error too.
	valid := Hello{Version: 1}.Encode(nil)
	if _, err := DecodeHello(append(valid, 0xFF)); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("trailing bytes: %v, want ErrBadMessage", err)
	}
}

// TestReplyEncodersSizeOnce holds the reply encoder, on both hops, to its size:
// Encode appends exactly size() bytes into a buffer of exactly that
// capacity, in one allocation.
func TestReplyEncodersSizeOnce(t *testing.T) {
	docs := [][]byte{[]byte("doc-one"), {}, bytes.Repeat([]byte{7}, 300)}
	keys := [][]byte{[]byte("k1"), []byte("k2"), {}}
	agg := &query.AggResult{Kind: query.AggDistinct, Count: 4, Distinct: [][]byte{[]byte("a"), []byte("bc")},
		Cells: []query.CellCount{{Cell: 1, Count: 2}, {Cell: 9, Count: 3}}}
	type encoder interface {
		size() int
		Encode([]byte) []byte
	}
	for _, tc := range []struct {
		name string
		msg  encoder
	}{
		{"reply docs", QueryReply{More: true, NReturned: 3, IndexUsed: "ix", Docs: docs}},
		{"reply docs+keys", QueryReply{KeysExamined: 9, IndexUsed: "ix", Docs: docs, Keys: keys}},
		{"reply agg", QueryReply{IndexUsed: "ix", Agg: agg}},
		{"routed failed shards", QueryReply{Routed: &Routed{Nodes: 3, Partial: true, FailedShards: []int32{1, 4}}}},
		{"routed docs", QueryReply{More: true, NReturned: 3, Routed: &Routed{Nodes: 2, ShardsPruned: 1, CacheHit: true}, Docs: docs}},
		{"routed agg", QueryReply{Routed: &Routed{Nodes: 2}, Agg: agg}},
		{"routed empty", QueryReply{Routed: &Routed{}}},
	} {
		b := tc.msg.Encode(nil)
		if len(b) != tc.msg.size() || cap(b) != len(b) {
			t.Errorf("%s: len %d, cap %d, size() %d", tc.name, len(b), cap(b), tc.msg.size())
		}
		if allocs := testing.AllocsPerRun(50, func() { tc.msg.Encode(nil) }); allocs != 1 {
			t.Errorf("%s: Encode(nil) makes %v allocations, want 1", tc.name, allocs)
		}
	}
}

// TestReplyDocsAreCappedViews checks that decoded reply documents and
// keys alias their frame body, with capacity capped at their length so
// that appending to one cannot overwrite the next.
func TestReplyDocsAreCappedViews(t *testing.T) {
	docs := [][]byte{[]byte("d1"), []byte("d2")}
	body := QueryReply{Docs: docs, Keys: [][]byte{[]byte("k1"), []byte("k2")}}.Encode(nil)
	qr, err := DecodeQueryReply(body)
	if err != nil {
		t.Fatal(err)
	}
	routed, err := DecodeQueryReply(QueryReply{Routed: &Routed{Nodes: 2, FailedShards: []int32{1}}, Docs: docs}.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	checkViews(t, "QueryReply doc", qr.Docs)
	checkViews(t, "QueryReply key", qr.Keys)
	checkViews(t, "routed QueryReply doc", routed.Docs)
	_ = append(qr.Docs[0], 'X')
	if !bytes.Equal(qr.Docs[1], []byte("d2")) {
		t.Fatalf("appending to doc 0 overwrote doc 1: %q", qr.Docs[1])
	}
	body[bytes.Index(body, []byte("d1"))] = 'z'
	if string(qr.Docs[0]) != "z1" {
		t.Fatalf("doc 0 = %q: not a view of its frame", qr.Docs[0])
	}
}

// TestFillCutsByCountAndBytes: a frame takes at most n documents, and
// no document that would carry its body past MaxFrameBody; DocsFit
// refuses only a document too large for a frame of its own.
func TestFillCutsByCountAndBytes(t *testing.T) {
	big := make([]byte, 7<<20) // shared: the sizes matter, not the bytes
	docs := [][]byte{big, big, big, big, big, big}
	keys := [][]byte{[]byte("k0"), []byte("k1"), []byte("k2"), []byte("k3"), []byte("k4"), []byte("k5")}
	first := QueryReply{KeysExamined: 6, IndexUsed: "ix", Routed: &Routed{Nodes: 1}}
	if k := first.Fill(docs, keys, 512); k != 4 || len(first.Docs) != 4 || len(first.Keys) != 4 || first.size() > MaxFrameBody {
		t.Fatalf("7 MiB documents: first frame takes %d (%d bytes), want 4 within %d", k, first.size(), MaxFrameBody)
	}
	if k := first.Fill(docs, keys, 3); k != 3 {
		t.Fatalf("count cut: frame takes %d, want 3", k)
	}
	var rest QueryReply
	if k := rest.Fill(docs[4:], nil, 512); k != 2 || rest.Keys != nil {
		t.Fatalf("unordered tail: frame takes %d, keys %v", k, rest.Keys)
	}
	if err := DocsFit(docs, keys); err != nil {
		t.Fatal(err)
	}

	room := MaxFrameBody - QueryReply{}.size()
	exact := make([]byte, room-4)
	if err := DocsFit([][]byte{exact}, nil); err != nil {
		t.Fatalf("a document filling a frame exactly: %v", err)
	}
	if k := rest.Fill([][]byte{exact}, nil, 512); k != 1 || rest.size() != MaxFrameBody {
		t.Fatalf("exact fit: frame takes %d at %d bytes", k, rest.size())
	}
	err := DocsFit([][]byte{{}, exact}, [][]byte{{}, {}})
	if err == nil || !strings.Contains(err.Error(), "document 1 of 2") {
		t.Fatalf("a document one key too large: %v, want an error naming document 1 of 2", err)
	}
}
