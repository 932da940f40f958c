package wire

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/query"
	"repro/internal/sfc"
)

// TestQueryCarriesAggregate: the aggregate spec rides the one read
// request among the other pushed-down options, and the shard's partial
// aggregate rides the one reply.
func TestQueryCarriesAggregate(t *testing.T) {
	f := query.NewAnd(
		query.Cmp{Field: "hilbertIndex", Op: query.OpGTE, Value: int64(100)},
		query.Cmp{Field: "hilbertIndex", Op: query.OpLTE, Value: int64(900)},
	)
	spec := query.AggSpec{Kind: query.AggCellHist, Field: "hilbertIndex", Shift: 12}
	m := Query{Shard: 3, Limit: 7, Agg: spec, Filter: f}
	body, err := m.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeQuery(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shard != m.Shard || got.Agg != spec || got.Filter.String() != f.String() {
		t.Fatalf("mismatch: %+v vs %+v", got, m)
	}
	if o := got.Opts(); o.Agg != spec || o.Limit != 7 {
		t.Fatalf("Opts() = %+v", o)
	}

	for _, agg := range []*query.AggResult{
		nil,
		{},
		{Kind: query.AggCount, Count: 42},
		{Kind: query.AggDistinct, Count: 7, Distinct: [][]byte{[]byte("a"), []byte("bc")}},
		{Kind: query.AggCellHist, Count: 5, Cells: []query.CellCount{{Cell: 1, Count: 2}, {Cell: 9, Count: 3}}},
	} {
		r := QueryReply{KeysExamined: 10, DocsExamined: 9, NReturned: 0, DurationNS: 1234, IndexUsed: "ix", Agg: agg}
		got, err := DecodeQueryReply(r.Encode(nil))
		if err != nil {
			t.Fatalf("agg %+v: %v", agg, err)
		}
		if got.KeysExamined != 10 || got.IndexUsed != "ix" || got.More || len(got.Docs) != 0 || got.Keys != nil {
			t.Fatalf("reply mismatch: %+v", got)
		}
		if (agg == nil) != (got.Agg == nil) || (agg != nil && !got.Agg.Equal(agg)) {
			t.Fatalf("agg mismatch: %+v vs %+v", got.Agg, agg)
		}
	}
}

// TestV9GoldenBytes pins the version-9 encoding of the one read
// request and its reply on both hops: a shard's, with and without an
// aggregate, and a router's, with the routed section. Any change to
// these bytes is an incompatible codec change and must bump
// ProtocolVersion. The bytes are version 8's — which added the
// KeyRanges filter node, ascending ranges as delta varints — plus
// version 9's three fields: the request's bound (a length-prefixed
// key, empty when there is none), the reply's documents refined after
// its documents examined, and the routed section's shards skipped
// after its shards pruned.
func TestV9GoldenBytes(t *testing.T) {
	if ProtocolVersion != 9 {
		t.Fatalf("ProtocolVersion = %d: re-pin these bytes for the new version", ProtocolVersion)
	}
	f := query.Cmp{Field: "h", Op: query.OpGTE, Value: int64(7)}
	plain := Query{Shard: 3, BatchSize: 512, Limit: 10, OrderBy: "date", Desc: true, Filter: f}
	agg := plain
	agg.Agg = query.AggSpec{Kind: query.AggCellHist, Field: "h", Shift: 12}
	ranges := plain
	ranges.Filter = query.KeyRanges{Field: "h", Ranges: []sfc.Range{{Lo: 3, Hi: 5}, {Lo: 9, Hi: 9}, {Lo: 300, Hi: 301}}}
	bounded := plain
	bounded.Bound = []byte("b1")
	const (
		head = "03000000" + "00020000" + "0a00000000000000" + "04000000" + "64617465" + "01"
		tail = "01" + "02" + "01000000" + "68" + "02" + "0700000000000000" // Cmp h >= int64(7)
	)
	for _, tc := range []struct {
		name string
		msg  Query
		want string
	}{
		{"query", plain, head + "00000000" + "00" + tail},
		{"query+bound", bounded, head + "02000000" + "6231" + "00" + tail},
		{"query+agg", agg, head + "00000000" + "03" + "01000000" + "68" + "0c" + tail},
		{"key ranges", ranges, head + "00000000" + "00" + "07" + "01000000" + "68" + "03000000" + // KeyRanges h, 3 ranges:
			"03" + "02" + "03" + "00" + "a202" + "01"}, // gap, span: [3,5] [9,9] [300,301]
	} {
		got, err := tc.msg.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(got) != tc.want {
			t.Errorf("%s:\n got %x\nwant %s", tc.name, got, tc.want)
		}
	}

	const stats = "0400000000000000" + "0300000000000000" + "0100000000000000" // keys, docs examined, docs refined
	docs := QueryReply{More: true, KeysExamined: 4, DocsExamined: 3, DocsRefined: 1, NReturned: 2, DurationNS: 1, IndexUsed: "ix",
		Docs: [][]byte{[]byte("d1"), []byte("d2")}, Keys: [][]byte{[]byte("k1"), []byte("k2")}}
	part := QueryReply{KeysExamined: 4, DocsExamined: 3, DocsRefined: 1, DurationNS: 1, IndexUsed: "ix",
		Agg: &query.AggResult{Kind: query.AggCellHist, Count: 5, Cells: []query.CellCount{{Cell: 1, Count: 2}, {Cell: 9, Count: 3}}}}
	routed := QueryReply{More: true, KeysExamined: 4, DocsExamined: 3, DocsRefined: 1, NReturned: 2, DurationNS: 1,
		Routed: &Routed{Nodes: 2, Broadcast: true, Partial: true, FailedShards: []int32{5}, ShardsPruned: 1, ShardsSkipped: 6, CacheHit: true},
		Docs:   [][]byte{[]byte("d1"), []byte("d2")}}
	for _, tc := range []struct {
		name string
		msg  QueryReply
		want string
	}{
		{"reply", docs, "01" + stats + "0200000000000000" + "0100000000000000" + "02000000" + "6978" +
			"00" + // not routed
			"02000000" + "02000000" + "6431" + "02000000" + "6432" + // docs
			"01" + "02000000" + "6b31" + "02000000" + "6b32" + // keys
			"00"}, // no aggregate
		{"reply+agg", part, "00" + stats + "0000000000000000" + "0100000000000000" + "02000000" + "6978" +
			"00" + // not routed
			"00000000" + "00" + // no docs, no keys
			"01" + "03" + "0500000000000000" + "00000000" + // aggregate: kind, count, no distincts
			"02000000" + "0100000000000000" + "0200000000000000" + "0900000000000000" + "0300000000000000"},
		{"routed reply", routed, "01" + stats + "0200000000000000" + "0100000000000000" + "00000000" + // no index name
			"01" + "02000000" + "01" + "01" + "01000000" + "05000000" + "01000000" + "06000000" + "01" + // nodes, broadcast, partial, failed [5], pruned, skipped, cache hit
			"02000000" + "02000000" + "6431" + "02000000" + "6432" + // docs
			"00" + "00"}, // no keys, no aggregate
	} {
		if got := tc.msg.Encode(nil); hex.EncodeToString(got) != tc.want {
			t.Errorf("%s:\n got %x\nwant %s", tc.name, got, tc.want)
		}
	}
	// The aggregate inside the reply is exactly the canonical digest
	// encoding — the bytes stquery -digest and the result cache hash.
	enc := part.Encode(nil)
	if canon := AppendAggResult(nil, part.Agg); !bytes.HasSuffix(enc, canon) {
		t.Fatalf("reply does not end in AppendAggResult bytes: %x vs %x", enc, canon)
	}
}

// TestAggResultCanonicalBytes pins the property the digest and cache
// key rest on: equal aggregates encode to equal bytes, different
// aggregates to different bytes.
func TestAggResultCanonicalBytes(t *testing.T) {
	a := &query.AggResult{Kind: query.AggCount, Count: 3}
	b := &query.AggResult{Kind: query.AggCount, Count: 3}
	c := &query.AggResult{Kind: query.AggCount, Count: 4}
	if !bytes.Equal(AppendAggResult(nil, a), AppendAggResult(nil, b)) {
		t.Fatal("equal aggregates encode differently")
	}
	if bytes.Equal(AppendAggResult(nil, a), AppendAggResult(nil, c)) {
		t.Fatal("different aggregates encode identically")
	}
	got, err := DecodeAggResult(AppendAggResult(nil, a))
	if err != nil || !got.Equal(a) {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
}

func TestSTQueryAggFieldsRoundTrip(t *testing.T) {
	m := STQuery{MinLon: 1, MaxLat: 2, FromNS: 3, ToNS: 4, Limit: 5,
		AggKind: 2, AggField: "date", AggBits: 6}
	got, err := DecodeSTQuery(m.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("mismatch: %+v vs %+v", got, m)
	}
	r := QueryReply{Routed: &Routed{Nodes: 2, ShardsPruned: 3, CacheHit: true},
		Agg: &query.AggResult{Kind: query.AggCount, Count: 9}}
	gr, err := DecodeQueryReply(r.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if gr.Agg == nil || !gr.Agg.Equal(r.Agg) || gr.Routed == nil || gr.Routed.ShardsPruned != 3 || !gr.Routed.CacheHit {
		t.Fatalf("reply mismatch: %+v", gr)
	}
}
