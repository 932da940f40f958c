package netconn

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/bson"
	"repro/internal/query"
	"repro/internal/sharding"
	"repro/internal/wire"
)

// ServerOptions configures a ShardServer.
type ServerOptions struct {
	// Conn is the execution boundary queries run through (nil means
	// the in-process LocalConn). Tests install a FaultConn here so
	// injected shard faults travel the wire as structured error
	// frames.
	Conn sharding.ShardConn
	// Admit is the server's admission control (conn cap, in-flight
	// semaphore, shedding, drain budget).
	Admit AdmitOptions
	// AuthSecret, when non-empty, demands the mutual HMAC challenge
	// from every connection: the handshake answers the client's nonce
	// with the server proof, then refuses to serve any op until the
	// client returns a valid proof over the server's nonce (a wrong or
	// missing proof gets a structured unauthorized ErrorReply).
	AuthSecret []byte
}

// maxFrameDocs caps the documents per reply frame a client may ask
// for in Query.BatchSize.
const maxFrameDocs = 4096

func (o ServerOptions) withDefaults() ServerOptions {
	if o.Conn == nil {
		o.Conn = sharding.LocalConn{}
	}
	return o
}

// ShardServer serves a subset of a cluster's shards over the wire
// protocol: one stshardd process constructs the full cluster (so its
// content fingerprint matches every peer's) but answers queries only
// for the shards it was assigned.
type ShardServer struct {
	cluster *sharding.Cluster
	shards  map[int]*sharding.Shard
	ids     []int32
	opts    ServerOptions
	ingest  *sharding.Ingester

	lst       listenState
	gate      *gate
	ctx       context.Context
	cancel    context.CancelFunc
	drainOnce sync.Once
	drained   bool
}

// NewShardServer wraps the cluster, serving the given shard ids (nil
// means every shard).
func NewShardServer(cluster *sharding.Cluster, serve []int, opts ServerOptions) (*ShardServer, error) {
	s := &ShardServer{
		cluster: cluster,
		shards:  map[int]*sharding.Shard{},
		opts:    opts.withDefaults(),
	}
	all := cluster.Shards()
	if serve == nil {
		for _, sh := range all {
			serve = append(serve, sh.ID)
		}
	}
	for _, id := range serve {
		if id < 0 || id >= len(all) {
			return nil, fmt.Errorf("netconn: shard %d out of range (cluster has %d)", id, len(all))
		}
		s.shards[id] = all[id]
		s.ids = append(s.ids, int32(id))
	}
	s.gate = newGate(s.opts.Admit)
	s.opts.Admit = s.gate.opts
	s.ingest = sharding.NewIngester(cluster)
	s.ctx, s.cancel = context.WithCancel(context.Background())
	return s, nil
}

// Listen binds addr (":0" for an ephemeral port) and starts serving.
// It returns the bound address.
func (s *ShardServer) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.lst.start(ln, s.handleConn, s.opts.Admit.MaxConns, s.gate)
	s.gate.state.Store(uint32(wire.StateReady))
	return ln.Addr().String(), nil
}

// State reports the server's health state (wire.StateStarting /
// StateReady / StateDraining).
func (s *ShardServer) State() uint8 { return uint8(s.gate.state.Load()) }

// Drain shuts the server down gracefully: stop accepting, refuse new
// requests with a draining error, wait (up to budget; <=0 means the
// configured DrainTimeout) for in-flight requests to finish, then
// close every connection. It reports whether the in-flight work
// finished inside the budget. Subsequent calls (and Close) wait for
// the same drain.
func (s *ShardServer) Drain(budget time.Duration) bool {
	s.drainOnce.Do(func() {
		if budget <= 0 {
			budget = s.opts.Admit.DrainTimeout
		}
		s.gate.state.Store(uint32(wire.StateDraining))
		s.lst.stopAccept()
		s.drained = s.gate.waitIdle(budget)
		// The batcher drains after in-flight requests: anything already
		// admitted to its queue still commits before shutdown.
		_ = s.ingest.Close()
		s.cancel()
		s.lst.close()
	})
	return s.drained
}

// Close drains under the configured budget, then closes every open
// connection and waits for the handlers.
func (s *ShardServer) Close() { s.Drain(0) }

func (s *ShardServer) handleConn(nc net.Conn) {
	h := &connHandler{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
	docs, checksum := s.cluster.ContentFingerprint()
	if !h.handshake(wire.HelloReply{
		Version:  wire.ProtocolVersion,
		Docs:     uint64(docs),
		Checksum: checksum,
		ShardIDs: s.ids,
	}, s.opts.AuthSecret) {
		return
	}
	h.serve(func(op byte, body []byte) bool { return s.handleOp(h, op, body) })
}

// serve reads request frames and dispatches them until the peer goes
// away or handle reports the conn poisoned; returning drops the conn.
func (h *connHandler) serve(handle func(op byte, body []byte) bool) {
	for {
		op, body, err := wire.ReadFrame(h.br)
		if err != nil {
			// A framing violation with a parseable header (oversized
			// length, checksum mismatch) gets a structured goodbye so
			// the client can log *why* before the conn dies; a plain
			// disconnect or torn stream is dropped silently.
			if isProtocolViolation(err) {
				h.replyErrCode(-1, false, wire.ErrCodeBadFrame, 0, err)
			}
			return
		}
		if !handle(op, body) {
			return
		}
	}
}

// isProtocolViolation distinguishes a client speaking garbage (bad
// length, checksum mismatch) from a connection simply going away
// (EOF, torn stream, reset).
func isProtocolViolation(err error) bool {
	return errors.Is(err, wire.ErrBadFrame) &&
		!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF)
}

// gated decodes one request body and runs it under the admission gate:
// a body that does not parse is answered with a structured error, a
// request the gate sheds with the gate's overload/draining verdict.
func gated[T any](g *gate, h *connHandler, body []byte, decode func([]byte) (T, error), run func(T) bool) bool {
	msg, err := decode(body)
	if err != nil {
		return h.replyErr(-1, false, err)
	}
	if shed := g.admit(); shed != nil {
		return h.reply(wire.OpError, shed.Encode(nil))
	}
	defer g.release()
	return run(msg)
}

// handleOp dispatches one request frame; false poisons the conn.
// Query and insert pass through the admission gate; ping and stats
// are exempt so health checks keep working on a saturated or draining
// server.
func (s *ShardServer) handleOp(h *connHandler, op byte, body []byte) bool {
	switch op {
	case wire.OpPing:
		return h.reply(wire.OpPong, nil)
	case wire.OpQuery:
		return gated(s.gate, h, body, wire.DecodeQuery, func(q wire.Query) bool { return s.runQuery(h, q) })
	case wire.OpInsert:
		// The server holds the FULL cluster (only query serving is
		// subset-scoped), so every daemon that receives the same broadcast
		// applies it identically and their fingerprints stay converged.
		return gated(s.gate, h, body, wire.DecodeInsert, func(ins wire.Insert) bool {
			return h.runInsert(s.ctx, s.ingest, s.cluster, ins)
		})
	case wire.OpStats:
		reply := wire.StatsReply{
			State:     s.State(),
			InFlight:  uint32(s.gate.inFlight()),
			Shed:      s.gate.shed.Load(),
			HeapInuse: s.gate.heapInuse(),
		}
		for _, id := range s.ids {
			reply.ShardIDs = append(reply.ShardIDs, id)
			reply.Docs = append(reply.Docs, int64(s.shards[int(id)].Coll.Len()))
		}
		return h.reply(wire.OpStatsReply, reply.Encode(nil))
	default:
		return h.replyErr(-1, false, fmt.Errorf("unsupported op %d", op))
	}
}

// runInsert applies one idempotent client batch through w (a server's
// group-commit batcher, or a router's whole write path) and answers
// with the journal LSN the ack rests on. Overload is shed before this,
// by the admission gate the insert passed.
func (h *connHandler) runInsert(ctx context.Context, w sharding.BatchInserter, cluster *sharding.Cluster, ins wire.Insert) bool {
	// This is the edge where documents enter: validate each once, then
	// hand the bytes on — the frame decoder gave ins.Docs their own
	// copies, which the stores will own. A well-formed document from an
	// encoder more liberal than ours (a bool byte other than 0/1, array
	// keys other than "0".."n-1") is re-encoded, so that what is stored
	// is always exactly Marshal's output. A store whose counts trust an
	// index key's cell (query.Containment) refuses, for good, a document
	// whose cell is not its point's: the client encoded it over another
	// extent, or forged it.
	var contain *query.Containment
	if qc := cluster.Options().QueryConfig; qc != nil {
		contain = qc.Contain
	}
	for i, raw := range ins.Docs {
		canonical, err := bson.Validate(raw)
		if err != nil {
			return h.replyErr(-1, false, fmt.Errorf("batch %q doc %d: %w", ins.BatchID, i, err))
		}
		if !canonical {
			doc, _ := bson.Unmarshal(raw) // Validate passed: it decodes
			ins.Docs[i] = bson.Marshal(doc)
		}
		if contain != nil {
			if err := contain.Check(ins.Docs[i]); err != nil {
				return h.replyErr(-1, false, fmt.Errorf("batch %q doc %d: %w", ins.BatchID, i, err))
			}
		}
	}
	// Refused here whether or not this process journals, so an
	// in-memory router and its durable daemons answer a batch alike.
	if err := sharding.CheckBatchRecord(ins.BatchID, ins.Docs); err != nil {
		return h.replyErr(-1, false, err)
	}
	applied, dup, err := w.InsertBatchRaw(ctx, ins.BatchID, ins.Docs)
	if err != nil {
		var se *sharding.ShardError
		if errors.As(err, &se) {
			// A shard's shed (a retry-after hint) stays an overload on
			// this hop too, so a router's client backs off by the hint.
			code := wire.ErrCodeGeneric
			if se.RetryAfter > 0 {
				code = wire.ErrCodeOverload
			}
			return h.replyErrCode(int32(se.Shard), se.Transient, code, se.RetryAfter, se.Err)
		}
		// A drain that cancelled the server ctx mid-commit is transient:
		// the client retries against the restarted daemon and dedups.
		return h.replyErr(-1, errors.Is(err, context.Canceled), err)
	}
	reply := wire.InsertReply{Applied: uint32(applied), Dup: dup, LastLSN: cluster.LSN()}
	return h.reply(wire.OpInsertReply, reply.Encode(nil))
}

// frameDocs resolves a query's requested documents per reply frame.
func frameDocs(n uint32) int {
	switch {
	case n == 0:
		return DefaultBatchSize
	case n > maxFrameDocs:
		return maxFrameDocs
	}
	return int(n)
}

// runQuery executes the filter through the server's conn boundary and
// streams the answer back with writeAnswer, at most the requested
// batch size per frame. An aggregate execution returns no documents,
// so its whole answer — the shard's partial aggregate — is one frame.
func (s *ShardServer) runQuery(h *connHandler, q wire.Query) bool {
	shard := s.shards[int(q.Shard)]
	if shard == nil {
		return h.replyErr(q.Shard, false, fmt.Errorf("shard %d not served here", q.Shard))
	}
	ctx := s.ctx
	if d := s.opts.Admit.QueryDeadline; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	res, err := s.opts.Conn.Query(ctx, shard, q.Filter, s.cluster.Options().QueryConfig, q.Opts())
	if err != nil {
		if s.opts.Admit.QueryDeadline > 0 && ctx.Err() != nil && s.ctx.Err() == nil {
			// The server-side per-query deadline expired: this server is
			// too slow right now, which is an overload signal — shed
			// with the retry-after hint rather than a generic error.
			shed := s.gate.overloadReply(fmt.Sprintf(
				"overloaded: query exceeded server deadline %v", s.opts.Admit.QueryDeadline))
			return h.reply(wire.OpError, shed.Encode(nil))
		}
		var se *sharding.ShardError
		if errors.As(err, &se) {
			return h.replyErr(int32(se.Shard), se.Transient, se.Err)
		}
		// A per-attempt deadline expiry is retryable by convention.
		return h.replyErr(q.Shard, errors.Is(err, context.DeadlineExceeded), err)
	}
	reply := wire.QueryReply{
		KeysExamined: int64(res.Stats.KeysExamined),
		DocsExamined: int64(res.Stats.DocsExamined),
		DocsRefined:  int64(res.Stats.DocsRefined),
		NReturned:    int64(res.Stats.NReturned),
		DurationNS:   int64(res.Stats.Duration),
		IndexUsed:    res.Stats.IndexUsed,
		Agg:          res.Agg,
	}
	return h.writeAnswer(q.Shard, reply, res.Docs, res.Keys, frameDocs(q.BatchSize))
}

// writeAnswer streams an answer — a shard's or a router's — as
// consecutive QueryReply frames written back to back, under the
// admission slot the request took. The first frame carries reply's
// stats, aggregate and routed section; the last has More unset. A
// frame holds at most n documents, fewer when the next would take it
// past wire.MaxFrameBody. An answer holding a document that no frame
// can carry is refused before its first frame with a structured,
// non-transient error naming shard; the connection stays in sync.
func (h *connHandler) writeAnswer(shard int32, reply wire.QueryReply, docs []bson.Raw, keys [][]byte, n int) bool {
	raw := make([][]byte, len(docs))
	for i, d := range docs {
		raw[i] = d
	}
	if err := wire.DocsFit(raw, keys); err != nil {
		return h.replyErr(shard, false, err)
	}
	var body []byte
	for {
		k := reply.Fill(raw, keys, n)
		raw = raw[k:]
		if keys != nil {
			keys = keys[k:]
		}
		reply.More = len(raw) > 0
		body = reply.Encode(body[:0])
		if wire.WriteFrame(h.bw, wire.OpQueryReply, body) != nil {
			return false
		}
		if !reply.More {
			return h.bw.Flush() == nil
		}
		reply = wire.QueryReply{}
	}
}

// connHandler is the per-connection server state: the buffered
// stream.
type connHandler struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func (h *connHandler) handshake(reply wire.HelloReply, secret []byte) bool {
	// A peer that cannot produce a valid Hello within a grace period
	// is not speaking the protocol.
	_ = h.nc.SetDeadline(time.Now().Add(10 * time.Second))
	op, body, err := wire.ReadFrame(h.br)
	if err != nil || op != wire.OpHello {
		return false
	}
	hello, err := wire.DecodeHello(body)
	if err != nil {
		return false
	}
	if hello.Version != wire.ProtocolVersion {
		h.replyErr(-1, false, fmt.Errorf("protocol version %d not supported (want %d)", hello.Version, wire.ProtocolVersion))
		return false
	}
	if len(secret) > 0 {
		if !h.challenge(reply, secret, hello.Nonce) {
			return false
		}
	} else if !h.reply(wire.OpHelloReply, reply.Encode(nil)) {
		return false
	}
	_ = h.nc.SetDeadline(time.Time{})
	return true
}

// challenge runs the server side of the mutual HMAC handshake: prove
// knowledge of the secret over the client's nonce, demand a proof over
// a fresh server nonce, and refuse every op until it verifies. The
// refusal is a structured unauthorized ErrorReply — sent before any op
// is served — so a misconfigured client learns *why* instead of seeing
// a silent disconnect.
func (h *connHandler) challenge(reply wire.HelloReply, secret, clientNonce []byte) bool {
	unauthorized := func(msg string) bool {
		h.replyErrCode(-1, false, wire.ErrCodeUnauthorized, 0, errors.New(msg))
		return false
	}
	if len(clientNonce) == 0 {
		// Refusing an empty challenge keeps the server proof fresh per
		// connection — a nonce-less client would make it a replayable
		// constant.
		return unauthorized("authentication required: hello carried no nonce")
	}
	nonce := wire.NewAuthNonce()
	reply.AuthRequired = true
	reply.Nonce = nonce
	reply.Proof = wire.AuthProof(secret, wire.AuthRoleServer, clientNonce)
	if !h.reply(wire.OpHelloReply, reply.Encode(nil)) {
		return false
	}
	op, body, err := wire.ReadFrame(h.br)
	if err != nil {
		return false
	}
	if op != wire.OpAuth {
		return unauthorized("authentication required: expected auth proof before any op")
	}
	auth, err := wire.DecodeAuth(body)
	if err != nil || !wire.VerifyAuthProof(secret, wire.AuthRoleClient, nonce, auth.Proof) {
		return unauthorized("authentication failed: invalid proof")
	}
	return h.reply(wire.OpAuthReply, nil)
}

func (h *connHandler) reply(op byte, body []byte) bool {
	if err := wire.WriteFrame(h.bw, op, body); err != nil {
		return false
	}
	return h.bw.Flush() == nil
}

// replyErr sends a structured error frame; the connection stays in
// sync and usable.
func (h *connHandler) replyErr(shard int32, transient bool, err error) bool {
	return h.replyErrCode(shard, transient, wire.ErrCodeGeneric, 0, err)
}

// replyErrCode is replyErr with an explicit error code and retry
// hint.
func (h *connHandler) replyErrCode(shard int32, transient bool, code uint8, retryAfter time.Duration, err error) bool {
	body := wire.ErrorReply{
		Shard: shard, Transient: transient, Code: code,
		RetryAfterNS: int64(retryAfter), Message: err.Error(),
	}.Encode(nil)
	return h.reply(wire.OpError, body)
}

// listenState is the shared accept-loop plumbing: tracked conns
// (bounded by the admission conn cap), a WaitGroup over handlers,
// idempotent stop-accept and close.
type listenState struct {
	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// start runs the accept loop. Connections beyond maxConns (0 = no
// cap) are refused via rejectConn with a structured overload error
// instead of being queued; refused conns never enter the conns map,
// but their goodbye goroutine is still WaitGroup-tracked.
func (l *listenState) start(ln net.Listener, handle func(net.Conn), maxConns int, g *gate) {
	l.mu.Lock()
	l.ln = ln
	l.conns = map[net.Conn]struct{}{}
	l.mu.Unlock()
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			l.mu.Lock()
			if l.closed {
				l.mu.Unlock()
				nc.Close()
				return
			}
			if maxConns > 0 && len(l.conns) >= maxConns {
				l.mu.Unlock()
				l.wg.Add(1)
				go func() {
					defer l.wg.Done()
					rejectConn(nc, g)
				}()
				continue
			}
			l.conns[nc] = struct{}{}
			l.mu.Unlock()
			l.wg.Add(1)
			go func() {
				defer l.wg.Done()
				handle(nc)
				nc.Close()
				l.mu.Lock()
				delete(l.conns, nc)
				l.mu.Unlock()
			}()
		}
	}()
}

// stopAccept closes the listener without touching live connections:
// the drain's first step. New dials are refused by the OS; in-flight
// requests and open conns continue.
func (l *listenState) stopAccept() {
	l.mu.Lock()
	ln := l.ln
	l.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
}

func (l *listenState) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.wg.Wait()
		return
	}
	l.closed = true
	ln := l.ln
	conns := make([]net.Conn, 0, len(l.conns))
	for nc := range l.conns {
		conns = append(conns, nc)
	}
	l.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, nc := range conns {
		nc.Close()
	}
	l.wg.Wait()
}
