package netconn

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/wire"
)

// aggMatrix is the aggregate differential matrix: count, distinct
// over a low-cardinality payload field, and heatmaps at two
// resolutions, over windows that hit one shard, several, and all.
func aggMatrix() []core.STQuery {
	week := testStart.Add(7 * 24 * time.Hour)
	return []core.STQuery{
		{Rect: testRect, From: testStart, To: week, Count: true},
		{Rect: testRect, From: testStart, To: testStart.Add(time.Hour), Count: true},
		{Rect: testRect, From: testStart, To: week, Distinct: "vehicleId"},
		{Rect: testRect, From: testStart, To: week, Distinct: "date"},
		{Rect: testRect, From: testStart, To: week, HeatmapBits: 4},
		{Rect: testRect, From: testStart, To: week, HeatmapBits: 8},
	}
}

func assertSameAgg(t *testing.T, label string, want, got *query.AggResult) {
	t.Helper()
	if want == nil || got == nil {
		t.Fatalf("%s: nil aggregate (want %v, got %v)", label, want, got)
	}
	if !want.Equal(got) {
		t.Fatalf("%s: aggregate diverges: want %+v, got %+v", label, want, got)
	}
	// Canonical encodings must match byte for byte: the cross-process
	// digest in cluster-smoke.sh depends on it.
	if !bytes.Equal(wire.AppendAggResult(nil, want), wire.AppendAggResult(nil, got)) {
		t.Fatalf("%s: canonical aggregate encodings differ", label)
	}
}

// TestAggregateDifferentialOverTCP proves the pushed-down aggregate
// path produces byte-identical merged results whether per-shard
// executions run in process or travel the wire to real shard
// daemons inside the one read op.
func TestAggregateDifferentialOverTCP(t *testing.T) {
	router := openStore(t, core.Hil, 4, 3000)
	backend := openStore(t, core.Hil, 4, 3000)
	addrs := startServers(t, backend, 2, ServerOptions{})
	rc := connectRemote(t, router, addrs, Options{})
	rc.batch = 7

	queries := aggMatrix()
	local := make([]*core.QueryResult, len(queries))
	for i, q := range queries {
		res, err := router.Aggregate(q)
		if err != nil {
			t.Fatalf("local aggregate %d: %v", i, err)
		}
		local[i] = res
	}
	router.Cluster().SetConn(rc)
	defer router.Cluster().SetConn(nil)
	for i, q := range queries {
		remote, err := router.Aggregate(q)
		if err != nil {
			t.Fatalf("remote aggregate %d: %v", i, err)
		}
		assertSameAgg(t, q.From.Format("q2006-01-02"), local[i].Agg, remote.Agg)
		if len(remote.Docs) != 0 {
			t.Fatalf("aggregate %d shipped %d documents over the wire", i, len(remote.Docs))
		}
		if remote.Stats.NReturned != local[i].Stats.NReturned {
			t.Fatalf("aggregate %d: NReturned %d != %d", i, remote.Stats.NReturned, local[i].Stats.NReturned)
		}
	}
}

// TestAggregateThroughRouterDaemon drives the aggregate through the
// client-facing router op: a thin Client sends STQuery frames with
// the aggregate request set and must read back the same merged
// aggregate the embedded store computes, plus the pruning/caching
// observables.
func TestAggregateThroughRouterDaemon(t *testing.T) {
	store := openStore(t, core.Hil, 4, 3000)
	rs := NewRouterServer(store, AdmitOptions{})
	addr, err := rs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.Close)
	cl, err := DialRouter(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	for i, q := range aggMatrix() {
		want, err := store.Aggregate(q)
		if err != nil {
			t.Fatalf("embedded aggregate %d: %v", i, err)
		}
		got, err := cl.Query(q)
		if err != nil {
			t.Fatalf("client aggregate %d: %v", i, err)
		}
		assertSameAgg(t, q.From.Format("q2006-01-02"), want.Agg, got.Agg)
	}

	// An invalid aggregate (heatmap through a store with no curve)
	// must come back as a structured error frame, not a torn stream.
	baseline := openStore(t, core.BslST, 2, 100)
	brs := NewRouterServer(baseline, AdmitOptions{})
	baddr, err := brs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(brs.Close)
	bcl, err := DialRouter(baddr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bcl.Close)
	if _, err := bcl.Query(core.STQuery{Rect: testRect, From: testStart, To: testStart.Add(time.Hour), HeatmapBits: 4}); err == nil {
		t.Fatal("heatmap on a baseline approach should fail")
	}
	// The connection must stay usable after the error frame.
	if _, err := bcl.Query(core.STQuery{Rect: testRect, From: testStart, To: testStart.Add(time.Hour), Count: true}); err != nil {
		t.Fatalf("count after failed heatmap: %v", err)
	}
}

// frameTap is a TCP relay that parses the wire frames it forwards and
// counts them by direction and op.
type frameTap struct {
	ln net.Listener
	wg sync.WaitGroup

	mu       sync.Mutex
	requests map[byte]int
	replies  map[byte]int
	// stallOp and stallFire arm stallAfter's one-shot stall.
	stallOp   byte
	stallFire func()
}

// stallAfter arms a one-shot stall: once the next reply frame with op
// has been forwarded, fire runs and that connection's later reply
// frames are read but never forwarded — the client has the first
// frame of an answer, then silence.
func (tap *frameTap) stallAfter(op byte, fire func()) {
	tap.mu.Lock()
	tap.stallOp, tap.stallFire = op, fire
	tap.mu.Unlock()
}

func newFrameTap(t *testing.T, target string) *frameTap {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tap := &frameTap{ln: ln, requests: map[byte]int{}, replies: map[byte]int{}}
	relay := func(dst, src net.Conn, count map[byte]int, replies bool) {
		defer tap.wg.Done()
		defer dst.Close()
		for stalled := false; ; {
			op, body, err := wire.ReadFrame(src)
			if err != nil {
				return
			}
			tap.mu.Lock()
			count[op]++
			var fire func()
			if replies && !stalled && tap.stallFire != nil && op == tap.stallOp {
				fire, tap.stallFire = tap.stallFire, nil
			}
			tap.mu.Unlock()
			if stalled {
				continue
			}
			if wire.WriteFrame(dst, op, body) != nil {
				return
			}
			if fire != nil {
				fire()
				stalled = true
			}
		}
	}
	tap.wg.Add(1)
	go func() {
		defer tap.wg.Done()
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			server, err := net.Dial("tcp", target)
			if err != nil {
				client.Close()
				continue
			}
			tap.wg.Add(2)
			go relay(server, client, tap.requests, false)
			go relay(client, server, tap.replies, true)
		}
	}()
	return tap
}

// since returns the per-op request and reply frame counts after a
// snapshot, leaving out ops with no new frames and the handshake of
// any conn the pool dialled meanwhile.
func (tap *frameTap) since(requests, replies map[byte]int) (map[byte]int, map[byte]int) {
	nowReq, nowRep := tap.snapshot()
	diff := func(now, before map[byte]int) map[byte]int {
		for op, n := range now {
			if now[op] = n - before[op]; now[op] == 0 || op == wire.OpHello || op == wire.OpHelloReply {
				delete(now, op)
			}
		}
		return now
	}
	return diff(nowReq, requests), diff(nowRep, replies)
}

// snapshot returns the per-op request and reply frame counts so far.
func (tap *frameTap) snapshot() (requests, replies map[byte]int) {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	requests, replies = map[byte]int{}, map[byte]int{}
	for op, n := range tap.requests {
		requests[op] = n
	}
	for op, n := range tap.replies {
		replies[op] = n
	}
	return requests, replies
}

// TestAggregateIsOneFrameEachWay: over TCP an aggregate costs exactly
// one request frame and one reply frame per targeted shard, even at a
// frame size of one document, while the document query over the same
// window sends one request frame per shard and streams more than one
// reply frame back.
func TestAggregateIsOneFrameEachWay(t *testing.T) {
	router := openStore(t, core.Hil, 4, 3000)
	backend := openStore(t, core.Hil, 4, 3000)
	srv, err := NewShardServer(backend.Cluster(), nil, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tap := newFrameTap(t, addr)
	// Closing the server ends the relayed streams; then the tap drains.
	t.Cleanup(tap.wg.Wait)
	t.Cleanup(func() { tap.ln.Close() })
	t.Cleanup(srv.Close)
	rc := connectRemote(t, router, []string{tap.ln.Addr().String()}, Options{})
	rc.batch = 1
	router.Cluster().SetConn(rc)
	defer router.Cluster().SetConn(nil)

	week := testStart.Add(7 * 24 * time.Hour)
	for _, q := range []core.STQuery{
		{Rect: testRect, From: testStart, To: week, Count: true},
		{Rect: testRect, From: testStart, To: week, Distinct: "vehicleId"},
		{Rect: testRect, From: testStart, To: week, HeatmapBits: 6},
	} {
		reqBefore, repBefore := tap.snapshot()
		res, err := router.Aggregate(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Agg == nil || res.Agg.Count == 0 || res.Stats.Nodes < 2 {
			t.Fatalf("vacuous aggregate: %+v over %d nodes", res.Agg, res.Stats.Nodes)
		}
		req, rep := tap.since(reqBefore, repBefore)
		if req[wire.OpQuery] != res.Stats.Nodes || rep[wire.OpQueryReply] != res.Stats.Nodes || len(req) != 1 || len(rep) != 1 {
			t.Fatalf("%d nodes: aggregate sent requests %v, got replies %v, want one query frame each way per node", res.Stats.Nodes, req, rep)
		}
	}
	// The tap is not vacuous: shipping the documents streams frames.
	reqBefore, repBefore := tap.snapshot()
	res := router.Query(core.STQuery{Rect: testRect, From: testStart, To: week})
	docReq, docRep := tap.since(reqBefore, repBefore)
	if len(res.Docs) < 2 {
		t.Fatalf("document query returned %d docs", len(res.Docs))
	}
	if docReq[wire.OpQuery] != res.Stats.Nodes || len(docReq) != 1 {
		t.Fatalf("%d nodes: document query sent requests %v, want one query frame per node", res.Stats.Nodes, docReq)
	}
	if docRep[wire.OpQueryReply] <= res.Stats.Nodes || len(docRep) != 1 {
		t.Fatalf("%d nodes: document query at frame size 1 got replies %v, want more than one query reply per node", res.Stats.Nodes, docRep)
	}

	// The router hop: a routed aggregate is one STQuery frame in and one
	// reply frame out, like an answer of up to DefaultBatchSize
	// documents; a larger answer streams.
	rs := NewRouterServer(router, AdmitOptions{})
	raddr, err := rs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rtap := newFrameTap(t, raddr)
	t.Cleanup(rtap.wg.Wait)
	t.Cleanup(func() { rtap.ln.Close() })
	t.Cleanup(rs.Close)
	cl, err := DialRouter(rtap.ln.Addr().String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	for _, tc := range []struct {
		q       core.STQuery
		replies int
	}{
		{core.STQuery{Rect: testRect, From: testStart, To: week, HeatmapBits: 6}, 1},
		{core.STQuery{Rect: testRect, From: testStart, To: week, Limit: DefaultBatchSize}, 1},
		{core.STQuery{Rect: testExtent, From: testStart, To: week}, 6}, // 3 000 documents
	} {
		reqBefore, repBefore := rtap.snapshot()
		if _, err := cl.Query(tc.q); err != nil {
			t.Fatal(err)
		}
		req, rep := rtap.since(reqBefore, repBefore)
		if req[wire.OpSTQuery] != 1 || len(req) != 1 || rep[wire.OpQueryReply] != tc.replies || len(rep) != 1 {
			t.Fatalf("routed %+v sent requests %v, got replies %v, want one STQuery and %d QueryReply frames", tc.q, req, rep, tc.replies)
		}
	}
}

// TestPreviousVersionPeerRefused: the handshake refuses a peer
// speaking the previous protocol version — and a version-9 peer, the
// last to send a filter tree instead of a query spec — in both
// directions, on both hops, with an error that names both versions.
func TestPreviousVersionPeerRefused(t *testing.T) {
	store := openStore(t, core.Hil, 2, 100)
	addrs := startServers(t, store, 1, ServerOptions{})
	rs := NewRouterServer(store, AdmitOptions{})
	raddr, err := rs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.Close)

	for _, old := range slices.Compact([]uint32{9, wire.ProtocolVersion - 1}) {
		// An old client against this shard server or router: a structured
		// error frame.
		refusal := fmt.Sprintf("protocol version %d not supported (want %d)", old, wire.ProtocolVersion)
		for server, addr := range map[string]string{"shard server": addrs[0], "router": raddr} {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
			if err := wire.WriteFrame(nc, wire.OpHello, wire.Hello{Version: old, Nonce: wire.NewAuthNonce()}.Encode(nil)); err != nil {
				t.Fatal(err)
			}
			op, body, err := wire.ReadFrame(nc)
			if err != nil || op != wire.OpError {
				t.Fatalf("old client against the %s got op %d err %v, want an error frame", server, op, err)
			}
			er, err := wire.DecodeErrorReply(body)
			if err != nil || er.Transient || !strings.Contains(er.Message, refusal) {
				t.Fatalf("old client refusal by the %s = %+v (%v)", server, er, err)
			}
		}

		// This client, dialling shard servers or a router, against an old
		// server, which either answers the handshake with its own version or
		// refuses ours the same way.
		answers := map[string]func(net.Conn){
			fmt.Sprintf("speaks protocol %d, want %d", old, wire.ProtocolVersion): func(c net.Conn) {
				_ = wire.WriteFrame(c, wire.OpHelloReply, wire.HelloReply{Version: old}.Encode(nil))
			},
			fmt.Sprintf("refused connection: protocol version %d not supported (want %d)", wire.ProtocolVersion, old): func(c net.Conn) {
				_ = wire.WriteFrame(c, wire.OpError, wire.ErrorReply{Shard: -1,
					Message: fmt.Sprintf("protocol version %d not supported (want %d)", wire.ProtocolVersion, old)}.Encode(nil))
			},
		}
		dialers := map[string]func(addr string) error{
			"Connect": func(addr string) error {
				_, err := Connect([]string{addr}, Options{})
				return err
			},
			"DialRouter": func(addr string) error {
				_, err := DialRouter(addr, Options{})
				return err
			},
		}
		for name, dial := range dialers {
			for want, answer := range answers {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				done := make(chan struct{})
				go func() {
					defer close(done)
					c, err := ln.Accept()
					if err != nil {
						return
					}
					defer c.Close()
					if _, _, err := wire.ReadFrame(c); err == nil {
						answer(c)
					}
				}()
				err = dial(ln.Addr().String())
				ln.Close()
				<-done
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("%s to an old server: %v, want %q", name, err, want)
				}
			}
		}
	}
}
