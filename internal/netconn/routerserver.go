package netconn

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/bson"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/wire"
)

// RouterServer is the mongos-style daemon's core: it owns a full
// store (chunk map, scatter-gather, merge) and answers the
// client-facing spatio-temporal query op. The store's per-shard
// executions typically run through a RemoteConn installed on its
// cluster, making this process a pure router; with the default
// LocalConn it degenerates to a single-process server.
type RouterServer struct {
	// AuthSecret, when non-empty, demands the mutual HMAC challenge
	// from every client connection (set before Listen).
	AuthSecret []byte

	store     *core.Store
	lst       listenState
	gate      *gate
	drainOnce sync.Once
	drained   bool
}

// NewRouterServer wraps the store with the given admission control
// (zero value = defaults).
func NewRouterServer(store *core.Store, admit AdmitOptions) *RouterServer {
	return &RouterServer{store: store, gate: newGate(admit)}
}

// Listen binds addr and starts serving; it returns the bound address.
func (s *RouterServer) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.lst.start(ln, s.handleConn, s.gate.opts.MaxConns, s.gate)
	s.gate.state.Store(uint32(wire.StateReady))
	return ln.Addr().String(), nil
}

// State reports the router's health state.
func (s *RouterServer) State() uint8 { return uint8(s.gate.state.Load()) }

// Drain shuts down gracefully: stop accepting, refuse new queries
// with a draining error, wait up to budget (<=0 means the configured
// DrainTimeout) for in-flight scatter-gathers, then close every
// connection. Reports whether in-flight work finished in time.
func (s *RouterServer) Drain(budget time.Duration) bool {
	s.drainOnce.Do(func() {
		if budget <= 0 {
			budget = s.gate.opts.DrainTimeout
		}
		s.gate.state.Store(uint32(wire.StateDraining))
		s.lst.stopAccept()
		s.drained = s.gate.waitIdle(budget)
		s.lst.close()
	})
	return s.drained
}

// Close drains under the configured budget, then closes every open
// connection.
func (s *RouterServer) Close() { s.Drain(0) }

func (s *RouterServer) handleConn(nc net.Conn) {
	h := &connHandler{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
	docs, checksum := s.store.Fingerprint()
	// A router serves no shards directly: empty shard id list.
	if !h.handshake(wire.HelloReply{
		Version:  wire.ProtocolVersion,
		Docs:     uint64(docs),
		Checksum: checksum,
	}, s.AuthSecret) {
		return
	}
	h.serve(func(op byte, body []byte) bool { return s.handleOp(h, op, body) })
}

func (s *RouterServer) handleOp(h *connHandler, op byte, body []byte) bool {
	switch op {
	case wire.OpPing:
		return h.reply(wire.OpPong, nil)
	case wire.OpSTQuery:
		return gated(s.gate, h, body, wire.DecodeSTQuery, func(msg wire.STQuery) bool {
			res := s.store.Query(stQueryFromWire(msg))
			if res.Err != nil {
				return h.replyErr(-1, false, res.Err)
			}
			return h.writeAnswer(-1, routedReply(res), res.Docs, nil, DefaultBatchSize)
		})
	case wire.OpInsert:
		// The store's write path: the local group-commit batcher first,
		// then the broadcast to every shard daemon when the store's conn
		// is a RemoteConn. The client's batch ID makes the whole pipeline
		// retry-safe end to end.
		return gated(s.gate, h, body, wire.DecodeInsert, func(ins wire.Insert) bool {
			return h.runInsert(context.Background(), s.store, s.store.Cluster(), ins)
		})
	case wire.OpStats:
		reply := wire.StatsReply{
			State:     s.State(),
			InFlight:  uint32(s.gate.inFlight()),
			Shed:      s.gate.shed.Load(),
			HeapInuse: s.gate.heapInuse(),
		}
		return h.reply(wire.OpStatsReply, reply.Encode(nil))
	default:
		return h.replyErr(-1, false, fmt.Errorf("unsupported op %d on router", op))
	}
}

func stQueryFromWire(m wire.STQuery) core.STQuery {
	q := core.STQuery{
		Rect:  geo.NewRect(m.MinLon, m.MinLat, m.MaxLon, m.MaxLat),
		From:  time.Unix(0, m.FromNS).UTC(),
		To:    time.Unix(0, m.ToNS).UTC(),
		Limit: int(m.Limit),
		Sort:  core.SortOrder(m.Sort),
	}
	switch query.AggKind(m.AggKind) {
	case query.AggCount:
		q.Count = true
	case query.AggDistinct:
		q.Distinct = m.AggField
	case query.AggCellHist:
		q.HeatmapBits = int(m.AggBits)
	}
	return q
}

// routedReply is the first frame of a routed answer, without its
// documents: the routed maxima and duration in the execution stats,
// and the observables only a router has in the routed section.
func routedReply(res *core.QueryResult) wire.QueryReply {
	rt := &wire.Routed{
		Nodes:         int32(res.Stats.Nodes),
		Broadcast:     res.Stats.Broadcast,
		Partial:       res.Stats.Partial,
		ShardsPruned:  int32(res.Stats.ShardsPruned),
		ShardsSkipped: int32(res.Stats.ShardsSkipped),
		CacheHit:      res.Stats.CacheHit,
	}
	for _, id := range res.Stats.FailedShards {
		rt.FailedShards = append(rt.FailedShards, int32(id))
	}
	return wire.QueryReply{
		KeysExamined: int64(res.Stats.MaxKeysExamined),
		DocsExamined: int64(res.Stats.MaxDocsExamined),
		NReturned:    int64(res.Stats.NReturned),
		DurationNS:   int64(res.Stats.Duration),
		Routed:       rt,
		Agg:          res.Agg,
	}
}

// Client is the thin driver for a RouterServer: one pooled-connection
// client exposing the spatio-temporal query.
type Client struct {
	pool *pool
	docs uint64
	sum  uint64
}

// DialRouter connects (and handshakes) to a router daemon.
func DialRouter(addr string, opts Options) (*Client, error) {
	c, err := dialReady(addr, opts)
	if err != nil {
		return nil, err
	}
	p := newPool(addr, opts)
	p.put(c)
	return &Client{pool: p, docs: c.hello.Docs, sum: c.hello.Checksum}, nil
}

// Fingerprint returns the router's announced content fingerprint.
func (cl *Client) Fingerprint() (docs int, checksum uint64) {
	return int(cl.docs), cl.sum
}

// Close closes the pooled connections.
func (cl *Client) Close() { cl.pool.close() }

// call runs one exchange with the router: the request frame, then
// reply frames until more reports the last one (nil more means a
// single reply) or the router answers with a structured error. It is
// the one place a failed exchange enters the thin client's error
// vocabulary: transport and protocol failures come back as plain
// errors, a structured error frame as *ServerError with its code and
// retry hint.
func call[T any](cl *Client, op byte, body []byte, want byte, decode func([]byte) (T, error), more func(T) bool) (T, error) {
	var (
		zero, reply T
		er          *wire.ErrorReply
		derr        error
	)
	c, err := cl.pool.get()
	if err != nil {
		return zero, err
	}
	defer cl.pool.put(c)
	err = c.exchange(context.Background(), op, body, func(rop byte, rbody []byte) bool {
		reply, er, derr = decodeReply(c, rop, rbody, want, decode)
		return derr == nil && er == nil && more != nil && more(reply)
	})
	if err == nil {
		err = derr
	}
	if err != nil {
		return zero, err
	}
	if er != nil {
		return zero, &ServerError{
			Code:       er.Code,
			Transient:  er.Transient,
			RetryAfter: time.Duration(er.RetryAfterNS),
			Message:    er.Message,
		}
	}
	return reply, nil
}

// Query executes one spatio-temporal query on the router and returns
// the routed result, read from the router's reply frames in one
// exchange. Stats fields that only exist router-side (cover timings,
// plan-cache counters, the winning indexes) are zero. The returned
// documents are views of the reply frames, which nothing else holds: a
// caller that keeps one document keeps its whole frame alive.
func (cl *Client) Query(q core.STQuery) (*core.QueryResult, error) {
	msg := wire.STQuery{
		MinLon: q.Rect.Min.Lon, MinLat: q.Rect.Min.Lat,
		MaxLon: q.Rect.Max.Lon, MaxLat: q.Rect.Max.Lat,
		FromNS: q.From.UTC().UnixNano(), ToNS: q.To.UTC().UnixNano(),
		Limit: int64(q.Limit),
		Sort:  uint8(q.Sort),
	}
	switch {
	case q.Count:
		msg.AggKind = uint8(query.AggCount)
	case q.Distinct != "":
		msg.AggKind = uint8(query.AggDistinct)
		msg.AggField = q.Distinct
	case q.HeatmapBits > 0:
		msg.AggKind = uint8(query.AggCellHist)
		msg.AggBits = uint8(q.HeatmapBits)
	}
	var res *core.QueryResult
	_, err := call(cl, wire.OpSTQuery, msg.Encode(nil), wire.OpQueryReply, wire.DecodeQueryReply, func(reply wire.QueryReply) bool {
		if res == nil { // the first frame: stats, aggregate, routed section
			res = &core.QueryResult{Agg: reply.Agg}
			res.Stats.MaxKeysExamined = int(reply.KeysExamined)
			res.Stats.MaxDocsExamined = int(reply.DocsExamined)
			res.Stats.Duration = time.Duration(reply.DurationNS)
			if rt := reply.Routed; rt != nil {
				res.Stats.Nodes = int(rt.Nodes)
				res.Stats.Broadcast = rt.Broadcast
				res.Stats.Partial = rt.Partial
				res.Stats.ShardsPruned = int(rt.ShardsPruned)
				res.Stats.ShardsSkipped = int(rt.ShardsSkipped)
				res.Stats.CacheHit = rt.CacheHit
				for _, id := range rt.FailedShards {
					res.Stats.FailedShards = append(res.Stats.FailedShards, int(id))
				}
			}
		}
		for _, doc := range reply.Docs {
			res.Docs = append(res.Docs, bson.Raw(doc))
		}
		return reply.More
	})
	if err != nil {
		return nil, err
	}
	res.Stats.NReturned = len(res.Docs)
	return res, nil
}

// Insert sends one idempotent batch of raw BSON documents to the
// router and waits for the cluster-wide ack. batchID is the
// idempotency token: on any error the caller retries with the same ID
// and every process that already applied the batch answers dup.
// Clients that ingest should dial with Options.Mutable (the router's
// fingerprint changes with every acked batch).
func (cl *Client) Insert(batchID string, docs [][]byte) (wire.InsertReply, error) {
	body := wire.Insert{BatchID: batchID, Docs: docs}.Encode(nil)
	return call(cl, wire.OpInsert, body, wire.OpInsertReply, wire.DecodeInsertReply, nil)
}

// ServerError is a structured error frame surfaced to a router
// client: the machine-readable code and retry hint, so callers can
// distinguish an overload shed from a real failure.
type ServerError struct {
	Code       uint8
	Transient  bool
	RetryAfter time.Duration
	Message    string
}

func (e *ServerError) Error() string {
	switch e.Code {
	case wire.ErrCodeOverload:
		return fmt.Sprintf("router: overloaded (retry after %v): %s", e.RetryAfter, e.Message)
	case wire.ErrCodeDraining:
		return fmt.Sprintf("router: draining: %s", e.Message)
	default:
		return fmt.Sprintf("router: %s", e.Message)
	}
}

// IsOverload reports whether err is a structured overload/draining
// shed from a server.
func IsOverload(err error) bool {
	var se *ServerError
	if !errors.As(err, &se) {
		return false
	}
	return se.Code == wire.ErrCodeOverload || se.Code == wire.ErrCodeDraining
}
