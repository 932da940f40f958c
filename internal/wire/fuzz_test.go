package wire

import (
	"bytes"
	"testing"

	"repro/internal/query"
	"repro/internal/sfc"
)

// FuzzFrameDecode throws arbitrary bytes at the frame and message
// decoders. Invariants: no panic, no oversized allocation (enforced
// structurally by length caps and count validation), and any input
// DecodeFrame accepts must re-encode to the identical prefix.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, OpPing, nil))
	f.Add(AppendFrame(nil, OpHello, Hello{Version: ProtocolVersion}.Encode(nil)))
	f.Add(AppendFrame(nil, OpHelloReply, HelloReply{Version: 1, Docs: 10, Checksum: 99, ShardIDs: []int32{0, 1}}.Encode(nil)))
	f.Add(AppendFrame(nil, OpQueryReply, QueryReply{More: true, Docs: [][]byte{[]byte("d")}}.Encode(nil)))
	f.Add(AppendFrame(nil, OpQueryReply, QueryReply{Docs: [][]byte{[]byte("e")}, Keys: [][]byte{[]byte("k")}}.Encode(nil)))
	f.Add(AppendFrame(nil, OpError, ErrorReply{Shard: 1, Transient: true, Message: "x"}.Encode(nil)))
	f.Add(AppendFrame(nil, OpSTQuery, STQuery{MinLon: 1, MaxLon: 2, Limit: 5}.Encode(nil)))
	f.Add(AppendFrame(nil, OpQueryReply, QueryReply{Routed: &Routed{Nodes: 2, Partial: true, FailedShards: []int32{3}, CacheHit: true},
		Docs: [][]byte{[]byte("d1"), {}},
		Agg:  &query.AggResult{Kind: query.AggCellHist, Count: 2, Cells: []query.CellCount{{Cell: 5, Count: 2}}}}.Encode(nil)))
	f.Add(AppendFrame(nil, OpInsert, Insert{BatchID: "b1", Docs: [][]byte{[]byte("doc")}}.Encode(nil)))
	// Corrupt variants: flipped payload byte, truncated tail, huge length.
	good := AppendFrame(nil, OpQuery, []byte("payload"))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)
	f.Add(good[:len(good)-2])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1})
	// Key ranges: a query frame, and bare filter bodies (one with a gap
	// that overflows).
	kr := query.KeyRanges{Field: "hilbertIndex", Ranges: []sfc.Range{{Lo: 3, Hi: 5}, {Lo: 9, Hi: 9}, {Lo: 300, Hi: 4000}}}
	krQuery, _ := Query{Shard: 2, Filter: query.NewAnd(query.GeoWithin{Field: "location"}, kr)}.Encode(nil)
	f.Add(AppendFrame(nil, OpQuery, krQuery))
	krBody, _ := AppendFilter(nil, kr)
	f.Add(krBody)
	f.Add([]byte{ftKeyRanges, 1, 0, 0, 0, 'h', 2, 0, 0, 0, 1, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0})
	// An ordered walk's request carries a bound; its reply counts the
	// documents refined, and the router's the shards skipped.
	bounded, _ := Query{Shard: 1, Limit: 100, OrderBy: "date", Desc: true, Bound: []byte{0x09, 0x80, 1, 2, 3, 4, 5, 6, 7}, Filter: kr}.Encode(nil)
	f.Add(AppendFrame(nil, OpQuery, bounded))
	f.Add(AppendFrame(nil, OpQuery, bounded[:len(bounded)-3]))
	f.Add(AppendFrame(nil, OpQueryReply, QueryReply{DocsExamined: 9, DocsRefined: 2, Routed: &Routed{Nodes: 6, ShardsSkipped: 4}}.Encode(nil)))

	f.Fuzz(func(t *testing.T, data []byte) {
		op, body, size, ok := DecodeFrame(data)
		if ok {
			if size <= 0 || size > len(data) {
				t.Fatalf("size %d out of range for %d input bytes", size, len(data))
			}
			if !bytes.Equal(AppendFrame(nil, op, body), data[:size]) {
				t.Fatal("accepted frame does not re-encode to its input")
			}
		}
		// ReadFrame over the same bytes must agree with DecodeFrame on
		// acceptance and never panic.
		rop, rbody, err := ReadFrame(bytes.NewReader(data))
		if ok != (err == nil) {
			t.Fatalf("DecodeFrame ok=%v but ReadFrame err=%v", ok, err)
		}
		if ok && (rop != op || !bytes.Equal(rbody, body)) {
			t.Fatal("ReadFrame and DecodeFrame disagree on accepted frame")
		}

		// Every message decoder must handle an arbitrary body without
		// panicking or over-allocating.
		msgBody := data
		if ok {
			msgBody = body
		}
		DecodeHello(msgBody)
		DecodeHelloReply(msgBody)
		DecodeAuth(msgBody)
		DecodeInsert(msgBody)
		DecodeInsertReply(msgBody)
		DecodeQuery(msgBody)
		if m, err := DecodeQueryReply(msgBody); err == nil {
			checkViews(t, "QueryReply doc", m.Docs)
			checkViews(t, "QueryReply key", m.Keys)
			if n := len(m.Encode(nil)); n != m.size() {
				t.Fatalf("QueryReply re-encodes to %d bytes, size() %d", n, m.size())
			}
		}
		DecodeStatsReply(msgBody)
		DecodeErrorReply(msgBody)
		DecodeSTQuery(msgBody)
		DecodeFilter(msgBody)
		DecodeAggResult(msgBody)
	})
}

// checkViews fails unless every decoded byte string's capacity is
// capped at its length, so no append can run into its neighbour.
func checkViews(t *testing.T, what string, l [][]byte) {
	t.Helper()
	for i, v := range l {
		if cap(v) != len(v) {
			t.Fatalf("%s %d: cap %d, len %d", what, i, cap(v), len(v))
		}
	}
}

// FuzzAggregateDecode drills into the aggregation codecs: the read
// request and reply decoders (which carry the aggregate spec and the
// partial aggregate) and the canonical AggResult decoder must be total
// on hostile bytes (no panic, allocation bounded by count validation),
// and anything they accept must re-encode to a stable form —
// decode(encode(decode(x))) == decode(x), canonical aggregate bytes a
// fixed point — the property the digest differential and the
// result-cache key depend on.
func FuzzAggregateDecode(f *testing.F) {
	filter := query.Cmp{Field: "h", Op: query.OpGTE, Value: int64(7)}
	plainBody, _ := Query{Shard: 1, Limit: 3, Filter: filter}.Encode(nil)
	boundBody, _ := Query{Shard: 1, Limit: 3, OrderBy: "date", Bound: []byte("k"), Filter: filter}.Encode(nil)
	f.Add(boundBody)
	aggBody, _ := Query{Shard: 1, Agg: query.AggSpec{Kind: query.AggDistinct, Field: "v"}, Filter: filter}.Encode(nil)
	f.Add(plainBody)
	f.Add(aggBody)
	f.Add(QueryReply{NReturned: 3, Docs: [][]byte{[]byte("d")}}.Encode(nil))
	f.Add(QueryReply{IndexUsed: "ix", Agg: &query.AggResult{Kind: query.AggCount, Count: 3}}.Encode(nil))
	f.Add(AppendAggResult(nil, nil))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := DecodeQuery(data); err == nil {
			re, err := m.Encode(nil)
			if err != nil {
				t.Fatalf("decoded Query does not re-encode: %v", err)
			}
			m2, err := DecodeQuery(re)
			if err != nil {
				t.Fatalf("re-encoded Query rejected: %v", err)
			}
			if m2.Agg != m.Agg || !sameOpts(m2.Opts(), m.Opts()) || m2.Shard != m.Shard || m2.Filter.String() != m.Filter.String() {
				t.Fatalf("Query unstable: %+v vs %+v", m, m2)
			}
			if !m.Agg.Active() && (m.Agg.Field != "" || m.Agg.Shift != 0) {
				t.Fatalf("inactive aggregate spec carries data: %+v", m.Agg)
			}
		}
		if m, err := DecodeQueryReply(data); err == nil {
			re := m.Encode(nil)
			m2, err := DecodeQueryReply(re)
			if err != nil {
				t.Fatalf("re-encoded QueryReply rejected: %v", err)
			}
			if (m.Agg == nil) != (m2.Agg == nil) || (m.Agg != nil && !m2.Agg.Equal(m.Agg)) ||
				m2.NReturned != m.NReturned || len(m2.Docs) != len(m.Docs) {
				t.Fatalf("QueryReply unstable: %+v vs %+v", m, m2)
			}
			if len(re) > len(data) {
				t.Fatal("re-encoding grew past the input")
			}
		}
		if a, err := DecodeAggResult(data); err == nil {
			re := AppendAggResult(nil, a)
			a2, err2 := DecodeAggResult(re)
			if err2 != nil || !a2.Equal(a) {
				t.Fatalf("AggResult unstable (%v): %+v vs %+v", err2, a, a2)
			}
			if !bytes.Equal(AppendAggResult(nil, a2), re) {
				t.Fatal("canonical bytes not a fixed point")
			}
		}
	})
}

// FuzzInsertDecode drills into the write-path codec: the Insert
// decoder must be total on hostile bytes (no panic, allocation
// bounded by the input length via count validation), and everything
// it accepts must round-trip byte-identically — the property the
// idempotent retry path rests on, since a re-encoded retry must hash
// and dedup exactly like the original.
func FuzzInsertDecode(f *testing.F) {
	f.Add(Insert{}.Encode(nil))
	f.Add(Insert{BatchID: "w0/7"}.Encode(nil))
	f.Add(Insert{BatchID: "w1/8", Docs: [][]byte{[]byte("doc-a"), {}, []byte("doc-b")}}.Encode(nil))
	f.Add(InsertReply{Applied: 2, Dup: true, LastLSN: 99}.Encode(nil))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := DecodeInsert(data); err == nil {
			re := m.Encode(nil)
			if !bytes.Equal(re, data) {
				t.Fatalf("accepted Insert does not re-encode to its input: %x vs %x", re, data)
			}
			if len(re) > len(data) {
				t.Fatal("re-encoding grew past the input")
			}
		}
		// InsertReply holds a bool, whose decoder accepts any nonzero
		// byte — so require decode→encode→decode stability rather than
		// byte identity.
		if m, err := DecodeInsertReply(data); err == nil {
			m2, err2 := DecodeInsertReply(m.Encode(nil))
			if err2 != nil || m2 != m {
				t.Fatalf("InsertReply unstable: %+v vs %+v (%v)", m, m2, err2)
			}
		}
		DecodeAuth(data)
	})
}

// sameOpts compares pushed-down options field by field (Bound is a
// slice, so Opts is not comparable).
func sameOpts(a, b query.Opts) bool {
	return a.Limit == b.Limit && a.OrderBy == b.OrderBy && a.Desc == b.Desc &&
		bytes.Equal(a.Bound, b.Bound) && a.Agg == b.Agg
}
