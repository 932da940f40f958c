package wire

import (
	"fmt"
	"time"

	"repro/internal/query"
)

// Hello opens every connection (client → server). Nonce is the
// client's random challenge for the shared-secret HMAC handshake: a
// server configured with a secret must prove knowledge of it in its
// HelloReply before the client sends anything else.
type Hello struct {
	Version uint32
	Nonce   []byte
}

// Encode appends the message body to buf.
func (m Hello) Encode(buf []byte) []byte {
	buf = appendU32(buf, m.Version)
	return appendBytes(buf, m.Nonce)
}

// DecodeHello decodes a Hello body.
func DecodeHello(b []byte) (Hello, error) {
	d := &dec{b: b}
	m := Hello{Version: d.u32("version"), Nonce: d.bytes("nonce")}
	return m, d.finish()
}

// HelloReply answers the handshake: the server's protocol version,
// the cluster content fingerprint (live document count plus the
// order-independent checksum the durability layer computes), and the
// shard ids this server answers queries for. A router daemon serves
// no shards directly and sends an empty id list.
//
// When the server requires authentication, AuthRequired is true,
// Nonce carries the server's challenge the client must answer with an
// OpAuth frame, and Proof is the server's HMAC over the client's
// Hello nonce — mutual proof, so a client never talks to an impostor
// server either.
type HelloReply struct {
	Version      uint32
	Docs         uint64
	Checksum     uint64
	ShardIDs     []int32
	AuthRequired bool
	Nonce        []byte
	Proof        []byte
}

// Encode appends the message body to buf.
func (m HelloReply) Encode(buf []byte) []byte {
	buf = appendU32(buf, m.Version)
	buf = appendU64(buf, m.Docs)
	buf = appendU64(buf, m.Checksum)
	buf = appendU32(buf, uint32(len(m.ShardIDs)))
	for _, id := range m.ShardIDs {
		buf = appendU32(buf, uint32(id))
	}
	buf = appendBool(buf, m.AuthRequired)
	buf = appendBytes(buf, m.Nonce)
	return appendBytes(buf, m.Proof)
}

// DecodeHelloReply decodes a HelloReply body.
func DecodeHelloReply(b []byte) (HelloReply, error) {
	d := &dec{b: b}
	m := HelloReply{
		Version:  d.u32("version"),
		Docs:     d.u64("docs"),
		Checksum: d.u64("checksum"),
	}
	n := d.count(4, "shard ids")
	m.ShardIDs = make([]int32, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		m.ShardIDs = append(m.ShardIDs, int32(d.u32("shard id")))
	}
	m.AuthRequired = d.bool("auth required")
	m.Nonce = d.bytes("auth nonce")
	m.Proof = d.bytes("auth proof")
	return m, d.finish()
}

// Auth answers the server's handshake challenge: the client's HMAC
// proof over the server's HelloReply nonce. The server replies
// OpAuthReply (empty body) on success or an unauthorized ErrorReply —
// and serves no other op before that exchange completes.
type Auth struct {
	Proof []byte
}

// Encode appends the message body to buf.
func (m Auth) Encode(buf []byte) []byte {
	return appendBytes(buf, m.Proof)
}

// DecodeAuth decodes an Auth body.
func DecodeAuth(b []byte) (Auth, error) {
	d := &dec{b: b}
	m := Auth{Proof: d.bytes("proof")}
	return m, d.finish()
}

// Insert applies one idempotent batch of documents to the server's
// cluster. BatchID is the client-assigned idempotency token (empty
// opts out): a server that already applied the batch — including
// before a crash, via the journaled dedup window — answers Dup
// without applying anything, so a retry after a dropped reply is
// exactly-once. Docs are raw BSON document bytes.
type Insert struct {
	BatchID string
	Docs    [][]byte
}

// Encode appends the message body to buf.
func (m Insert) Encode(buf []byte) []byte {
	buf = appendString(buf, m.BatchID)
	buf = appendU32(buf, uint32(len(m.Docs)))
	for _, doc := range m.Docs {
		buf = appendBytes(buf, doc)
	}
	return buf
}

// DecodeInsert decodes an Insert body.
func DecodeInsert(b []byte) (Insert, error) {
	d := &dec{b: b}
	m := Insert{BatchID: d.string("batch id")}
	n := d.count(4, "docs")
	m.Docs = make([][]byte, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		m.Docs = append(m.Docs, d.bytes("doc"))
	}
	return m, d.finish()
}

// InsertReply acknowledges a batch: how many documents were applied
// (0 with Dup set when the dedup window absorbed a retry) and the
// server's last journaled LSN after the commit — the durability
// horizon the write reached.
type InsertReply struct {
	Applied uint32
	Dup     bool
	LastLSN uint64
}

// Encode appends the message body to buf.
func (m InsertReply) Encode(buf []byte) []byte {
	buf = appendU32(buf, m.Applied)
	buf = appendBool(buf, m.Dup)
	return appendU64(buf, m.LastLSN)
}

// DecodeInsertReply decodes an InsertReply body.
func DecodeInsertReply(b []byte) (InsertReply, error) {
	d := &dec{b: b}
	m := InsertReply{
		Applied: d.u32("applied"),
		Dup:     d.bool("dup"),
		LastLSN: d.u64("last lsn"),
	}
	return m, d.finish()
}

// Query is the one shard-facing read request: execute a query spec on
// one shard under the pushed-down options — limit, ordering, an ordered
// walk's bound, aggregate — so the shard bounds its scan exactly as the
// in-process executor would. BatchSize caps the documents per reply frame of a document
// query's answer; an aggregate query (Agg active) is answered by a
// single reply frame carrying the shard's partial aggregate and no
// documents.
type Query struct {
	Shard     int32
	BatchSize uint32
	Limit     int64
	OrderBy   string
	Desc      bool
	// Bound is query.Opts.Bound: empty, or the sort key an ordered
	// walk's shard drops every strictly worse match against.
	Bound []byte
	Agg   query.AggSpec
	// Filter is the query: a *query.Spec, or a *query.Prepared one
	// (DecodeQuery yields a *query.Spec).
	Filter query.Filter
}

// Encode appends the message body to buf. It fails only when Filter
// is not a query spec (a *query.Spec or a *query.Prepared one).
func (m Query) Encode(buf []byte) ([]byte, error) {
	buf = appendU32(buf, uint32(m.Shard))
	buf = appendU32(buf, m.BatchSize)
	buf = appendI64(buf, m.Limit)
	buf = appendString(buf, m.OrderBy)
	buf = appendBool(buf, m.Desc)
	buf = appendBytes(buf, m.Bound)
	// The aggregate spec costs a document query one zero byte.
	buf = appendU8(buf, uint8(m.Agg.Kind))
	if m.Agg.Active() {
		buf = appendString(buf, m.Agg.Field)
		buf = appendU8(buf, m.Agg.Shift)
	}
	switch f := m.Filter.(type) {
	case *query.Spec:
		return appendSpec(buf, f), nil
	case *query.Prepared:
		// Planning state is per process; the spec is what travels.
		return appendSpec(buf, f.Spec()), nil
	}
	return nil, fmt.Errorf("wire: a %T is not a query spec", m.Filter)
}

// DecodeQuery decodes a Query body.
func DecodeQuery(b []byte) (Query, error) {
	d := &dec{b: b}
	m := Query{
		Shard:     int32(d.u32("shard")),
		BatchSize: d.u32("batch size"),
		Limit:     d.i64("limit"),
		OrderBy:   d.string("order by"),
		Desc:      d.bool("desc"),
	}
	m.Bound = d.bytes("bound")
	m.Agg.Kind = query.AggKind(d.u8("agg kind"))
	if m.Agg.Active() {
		m.Agg.Field = d.string("agg field")
		m.Agg.Shift = d.u8("agg shift")
	}
	s := decodeSpec(d)
	if err := d.finish(); err != nil {
		return m, err
	}
	m.Filter = s
	return m, nil
}

// Opts translates the pushed-down options into the executor's form.
func (m Query) Opts() query.Opts {
	return query.Opts{Limit: int(m.Limit), OrderBy: m.OrderBy, Desc: m.Desc, Bound: m.Bound, Agg: m.Agg}
}

// QueryReply carries one frame of an answer, on both hops: a shard's
// answer to Query and a router's to STQuery. The server sends the
// frames of one answer back to back; the first also carries the
// execution stats (they are complete once the scan ran — the answer
// is already limit/top-k-bounded), later ones leave them zero. More is
// set on every frame but the last.
type QueryReply struct {
	More         bool
	KeysExamined int64
	DocsExamined int64
	DocsRefined  int64
	NReturned    int64
	DurationNS   int64
	IndexUsed    string
	// Routed is present only on the first frame of a router's answer.
	Routed *Routed
	Docs   [][]byte
	// Keys are the encoded sort keys, index-aligned with Docs; present
	// only for ordered executions (the router's k-way merge needs
	// them).
	Keys [][]byte
	// Agg is the partial aggregate, present only when the query pushed
	// one down (such a reply is a single frame with no Docs and no
	// Keys).
	Agg *query.AggResult
}

// Routed is the router's observables of a routed answer, which the
// shard hop has no use for: the nodes the query was sent to, whether
// routing broadcast, the shards that failed a partial answer, the
// targeted shards pruning skipped, the targeted shards a limited walk
// never asked, and whether the result cache answered. On a routed reply KeysExamined, DocsExamined and
// DurationNS carry the per-node maxima and the scatter-gather time.
type Routed struct {
	Nodes         int32
	Broadcast     bool
	Partial       bool
	FailedShards  []int32
	ShardsPruned  int32
	ShardsSkipped int32
	CacheHit      bool
}

// size is the exact length Encode appends.
func (m QueryReply) size() int {
	n := 1 + 5*8 + 4 + len(m.IndexUsed) + 1 + 4 + bytesListSize(m.Docs) + 1
	if m.Routed != nil {
		n += 4 + 2 + 4 + 4*len(m.Routed.FailedShards) + 4 + 4 + 1
	}
	if m.Keys != nil {
		n += bytesListSize(m.Keys)
	}
	n++
	if m.Agg != nil {
		n += aggResultSize(m.Agg)
	}
	return n
}

// Encode appends the message body to buf, growing it at most once.
func (m QueryReply) Encode(buf []byte) []byte {
	buf = grow(buf, m.size())
	buf = appendBool(buf, m.More)
	buf = appendI64(buf, m.KeysExamined)
	buf = appendI64(buf, m.DocsExamined)
	buf = appendI64(buf, m.DocsRefined)
	buf = appendI64(buf, m.NReturned)
	buf = appendI64(buf, m.DurationNS)
	buf = appendString(buf, m.IndexUsed)
	// The routed section costs a shard's reply one zero byte.
	buf = appendBool(buf, m.Routed != nil)
	if r := m.Routed; r != nil {
		buf = appendU32(buf, uint32(r.Nodes))
		buf = appendBool(buf, r.Broadcast)
		buf = appendBool(buf, r.Partial)
		buf = appendU32(buf, uint32(len(r.FailedShards)))
		for _, id := range r.FailedShards {
			buf = appendU32(buf, uint32(id))
		}
		buf = appendU32(buf, uint32(r.ShardsPruned))
		buf = appendU32(buf, uint32(r.ShardsSkipped))
		buf = appendBool(buf, r.CacheHit)
	}
	buf = appendU32(buf, uint32(len(m.Docs)))
	for _, doc := range m.Docs {
		buf = appendBytes(buf, doc)
	}
	buf = appendBool(buf, m.Keys != nil)
	if m.Keys != nil {
		for _, k := range m.Keys {
			buf = appendBytes(buf, k)
		}
	}
	buf = appendBool(buf, m.Agg != nil)
	if m.Agg != nil {
		buf = AppendAggResult(buf, m.Agg)
	}
	return buf
}

// Fill sets m.Docs, and m.Keys when keys is not nil, to the longest
// prefix of docs that keeps the frame within n documents and within
// MaxFrameBody bytes beside m's other fields, and returns its length.
func (m *QueryReply) Fill(docs, keys [][]byte, n int) int {
	m.Docs, m.Keys = nil, nil
	size, k := m.size(), 0
	for ; k < len(docs) && k < n; k++ {
		d := 4 + len(docs[k])
		if keys != nil {
			d += 4 + len(keys[k])
		}
		if size+d > MaxFrameBody {
			break
		}
		size += d
	}
	m.Docs = docs[:k]
	if keys != nil {
		m.Keys = keys[:k]
	}
	return k
}

// DocsFit returns nil when every document, with its key, fits in a
// reply frame that carries nothing else — so Fill takes at least one
// document into every frame after the first — and otherwise an error
// naming the first that does not.
func DocsFit(docs, keys [][]byte) error {
	room := MaxFrameBody - QueryReply{}.size()
	for i, doc := range docs {
		n := 4 + len(doc)
		if keys != nil {
			n += 4 + len(keys[i])
		}
		if n > room {
			return fmt.Errorf("wire: document %d of %d encodes to %d bytes, over the %d bytes a reply frame can carry",
				i, len(docs), n, room)
		}
	}
	return nil
}

// DecodeQueryReply decodes a QueryReply body.
func DecodeQueryReply(b []byte) (QueryReply, error) {
	d := &dec{b: b}
	m := QueryReply{
		More:         d.bool("more"),
		KeysExamined: d.i64("keys examined"),
		DocsExamined: d.i64("docs examined"),
		DocsRefined:  d.i64("docs refined"),
		NReturned:    d.i64("n returned"),
		DurationNS:   d.i64("duration"),
		IndexUsed:    d.string("index used"),
	}
	if d.bool("has routed") && d.err == nil {
		r := &Routed{
			Nodes:     int32(d.u32("nodes")),
			Broadcast: d.bool("broadcast"),
			Partial:   d.bool("partial"),
		}
		nf := d.count(4, "failed shards")
		r.FailedShards = make([]int32, 0, nf)
		for i := 0; i < nf && d.err == nil; i++ {
			r.FailedShards = append(r.FailedShards, int32(d.u32("failed shard")))
		}
		r.ShardsPruned = int32(d.u32("shards pruned"))
		r.ShardsSkipped = int32(d.u32("shards skipped"))
		r.CacheHit = d.bool("cache hit")
		m.Routed = r
	}
	n := d.count(4, "docs")
	m.Docs = make([][]byte, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		m.Docs = append(m.Docs, d.view("doc"))
	}
	if d.bool("has keys") && d.err == nil {
		m.Keys = make([][]byte, 0, len(m.Docs))
		for i := 0; i < len(m.Docs) && d.err == nil; i++ {
			m.Keys = append(m.Keys, d.view("key"))
		}
	}
	if d.bool("has agg") && d.err == nil {
		m.Agg = decodeAggResult(d)
	}
	return m, d.finish()
}

// Stats converts the wire counters into executor stats.
func (m QueryReply) Stats() query.ExecStats {
	return query.ExecStats{
		KeysExamined: int(m.KeysExamined),
		DocsExamined: int(m.DocsExamined),
		DocsRefined:  int(m.DocsRefined),
		NReturned:    int(m.NReturned),
		IndexUsed:    m.IndexUsed,
		Duration:     time.Duration(m.DurationNS),
	}
}

// StatsReply reports the server's served shards and their live
// document counts, plus the health/admission observables the ops
// tooling and the chaos orchestrator watch: the
// starting/ready/draining state, the in-flight request count, the
// running total of shed requests, and the sampled heap-in-use (OpStats
// carries an empty request body). Cursors is always 0: no server has
// kept a cursor since version 6.
type StatsReply struct {
	ShardIDs  []int32
	Docs      []int64
	Cursors   uint32
	State     uint8 // StateStarting | StateReady | StateDraining
	InFlight  uint32
	Shed      uint64
	HeapInuse uint64
}

// Encode appends the message body to buf.
func (m StatsReply) Encode(buf []byte) []byte {
	buf = appendU32(buf, uint32(len(m.ShardIDs)))
	for i, id := range m.ShardIDs {
		buf = appendU32(buf, uint32(id))
		buf = appendI64(buf, m.Docs[i])
	}
	buf = appendU32(buf, m.Cursors)
	buf = appendU8(buf, m.State)
	buf = appendU32(buf, m.InFlight)
	buf = appendU64(buf, m.Shed)
	return appendU64(buf, m.HeapInuse)
}

// DecodeStatsReply decodes a StatsReply body.
func DecodeStatsReply(b []byte) (StatsReply, error) {
	d := &dec{b: b}
	n := d.count(12, "shard stats")
	m := StatsReply{ShardIDs: make([]int32, 0, n), Docs: make([]int64, 0, n)}
	for i := 0; i < n && d.err == nil; i++ {
		m.ShardIDs = append(m.ShardIDs, int32(d.u32("shard id")))
		m.Docs = append(m.Docs, d.i64("shard docs"))
	}
	m.Cursors = d.u32("cursors")
	m.State = d.u8("state")
	m.InFlight = d.u32("in flight")
	m.Shed = d.u64("shed")
	m.HeapInuse = d.u64("heap inuse")
	return m, d.finish()
}

// ErrorReply is the structured error frame: which shard failed,
// whether the failure is transient (worth retrying — the
// ShardError.Transient semantics preserved across the network), a
// machine-readable code, an optional retry-after backoff hint
// (overload/draining sheds carry one so clients back off instead of
// hammering), and a human-readable cause.
type ErrorReply struct {
	Shard        int32
	Transient    bool
	Code         uint8
	RetryAfterNS int64
	Message      string
}

// Encode appends the message body to buf.
func (m ErrorReply) Encode(buf []byte) []byte {
	buf = appendU32(buf, uint32(m.Shard))
	buf = appendBool(buf, m.Transient)
	buf = appendU8(buf, m.Code)
	buf = appendI64(buf, m.RetryAfterNS)
	return appendString(buf, m.Message)
}

// DecodeErrorReply decodes an ErrorReply body.
func DecodeErrorReply(b []byte) (ErrorReply, error) {
	d := &dec{b: b}
	m := ErrorReply{
		Shard:        int32(d.u32("shard")),
		Transient:    d.bool("transient"),
		Code:         d.u8("code"),
		RetryAfterNS: d.i64("retry after"),
		Message:      d.string("message"),
	}
	return m, d.finish()
}

// STQuery is the router daemon's client-facing operation: one
// spatio-temporal range query (rectangle, closed time interval,
// optional limit and date ordering), routed and scatter-gathered by
// the daemon exactly as the embedded router would. It is answered
// like Query, by a stream of QueryReply frames; the first carries the
// routed section.
type STQuery struct {
	MinLon, MinLat float64
	MaxLon, MaxLat float64
	FromNS, ToNS   int64
	Limit          int64
	// Sort: 0 none, 1 date ascending, 2 date descending.
	Sort uint8
	// The aggregate request (version 4): 0 none, 1 count, 2 distinct
	// AggField, 3 heatmap over order-AggBits cells. The daemon's store
	// translates bits into the curve shift, so the thin client needs no
	// knowledge of the server's curve order.
	AggKind  uint8
	AggField string
	AggBits  uint8
}

// Encode appends the message body to buf.
func (m STQuery) Encode(buf []byte) []byte {
	buf = appendF64(buf, m.MinLon)
	buf = appendF64(buf, m.MinLat)
	buf = appendF64(buf, m.MaxLon)
	buf = appendF64(buf, m.MaxLat)
	buf = appendI64(buf, m.FromNS)
	buf = appendI64(buf, m.ToNS)
	buf = appendI64(buf, m.Limit)
	buf = appendU8(buf, m.Sort)
	buf = appendU8(buf, m.AggKind)
	buf = appendString(buf, m.AggField)
	return appendU8(buf, m.AggBits)
}

// DecodeSTQuery decodes an STQuery body.
func DecodeSTQuery(b []byte) (STQuery, error) {
	d := &dec{b: b}
	m := STQuery{
		MinLon: d.f64("min lon"), MinLat: d.f64("min lat"),
		MaxLon: d.f64("max lon"), MaxLat: d.f64("max lat"),
		FromNS: d.i64("from"), ToNS: d.i64("to"),
		Limit: d.i64("limit"),
		Sort:  d.u8("sort"),
	}
	m.AggKind = d.u8("agg kind")
	m.AggField = d.string("agg field")
	m.AggBits = d.u8("agg bits")
	return m, d.finish()
}
