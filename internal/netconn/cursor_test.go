package netconn

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/query"
	"repro/internal/sharding"
	"repro/internal/wire"
)

// startOneServer starts a single ShardServer over all the store's
// shards and returns it with its address.
func startOneServer(t testing.TB, s *core.Store, opts ServerOptions) (*ShardServer, string) {
	t.Helper()
	srv, err := NewShardServer(s.Cluster(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, addr
}

// rawQueryBody builds an OpQuery body for shard 0 matching a wide
// window of the test data.
func rawQueryBody(t testing.TB, s *core.Store, batch uint32) []byte {
	t.Helper()
	f, _, _ := s.Filter(core.STQuery{Rect: testRect, From: testStart, To: testStart.Add(7 * 24 * time.Hour)})
	body, err := wire.Query{Shard: 0, BatchSize: batch, Filter: f}.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCursorKillAndUnknownGetMore drives the raw protocol: a
// batch-1 query opens a server-side cursor, killCursor drops it, and
// a getMore for the dead cursor is a clean structured error on a
// still-healthy connection.
func TestCursorKillAndUnknownGetMore(t *testing.T) {
	s := openStore(t, core.Hil, 2, 800)
	srv, addr := startOneServer(t, s, ServerOptions{})
	c, err := dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()

	op, body, err := c.roundTrip(nil, wire.OpQuery, rawQueryBody(t, s, 1))
	if err != nil || op != wire.OpQueryReply {
		t.Fatalf("query: op %d, err %v", op, err)
	}
	reply, err := wire.DecodeQueryReply(body)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Cursor == 0 || len(reply.Docs) != 1 {
		t.Fatalf("expected an open cursor with one doc, got cursor %d, %d docs", reply.Cursor, len(reply.Docs))
	}
	if srv.OpenCursors() != 1 {
		t.Fatalf("OpenCursors = %d, want 1", srv.OpenCursors())
	}

	op, _, err = c.roundTrip(nil, wire.OpKillCursor, wire.KillCursor{Cursor: reply.Cursor}.Encode(nil))
	if err != nil || op != wire.OpKillReply {
		t.Fatalf("killCursor: op %d, err %v", op, err)
	}
	if srv.OpenCursors() != 0 {
		t.Fatalf("OpenCursors = %d after kill, want 0", srv.OpenCursors())
	}

	op, body, err = c.roundTrip(nil, wire.OpGetMore, wire.GetMore{Cursor: reply.Cursor, BatchSize: 10}.Encode(nil))
	if err != nil || op != wire.OpError {
		t.Fatalf("getMore on dead cursor: op %d, err %v", op, err)
	}
	if er, err := wire.DecodeErrorReply(body); err != nil || er.Transient {
		t.Fatalf("expected hard cursor-not-found, got %+v, %v", er, err)
	}

	// The connection survived the error frame: a fresh query works.
	op, _, err = c.roundTrip(nil, wire.OpQuery, rawQueryBody(t, s, 1000))
	if err != nil || op != wire.OpQueryReply {
		t.Fatalf("post-error query: op %d, err %v", op, err)
	}
}

// TestCursorTTLReap: a cursor idle past the server's TTL is reaped
// and its getMore fails, without the client ever disconnecting.
func TestCursorTTLReap(t *testing.T) {
	s := openStore(t, core.Hil, 2, 800)
	srv, addr := startOneServer(t, s, ServerOptions{CursorTTL: 80 * time.Millisecond})
	c, err := dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()

	op, body, err := c.roundTrip(nil, wire.OpQuery, rawQueryBody(t, s, 1))
	if err != nil || op != wire.OpQueryReply {
		t.Fatalf("query: op %d, err %v", op, err)
	}
	reply, _ := wire.DecodeQueryReply(body)
	if reply.Cursor == 0 {
		t.Fatal("expected an open cursor")
	}
	waitFor(t, "cursor reap", func() bool { return srv.OpenCursors() == 0 })

	op, body, err = c.roundTrip(nil, wire.OpGetMore, wire.GetMore{Cursor: reply.Cursor, BatchSize: 1}.Encode(nil))
	if err != nil || op != wire.OpError {
		t.Fatalf("getMore on reaped cursor: op %d, err %v", op, err)
	}
}

// TestCursorDroppedOnDisconnect: a client that vanishes without
// killCursor leaves nothing behind once its connection closes.
func TestCursorDroppedOnDisconnect(t *testing.T) {
	s := openStore(t, core.Hil, 2, 800)
	srv, addr := startOneServer(t, s, ServerOptions{})
	c, err := dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if op, _, err := c.roundTrip(nil, wire.OpQuery, rawQueryBody(t, s, 1)); err != nil || op != wire.OpQueryReply {
		t.Fatalf("query: op %d, err %v", op, err)
	}
	if srv.OpenCursors() != 1 {
		t.Fatalf("OpenCursors = %d, want 1", srv.OpenCursors())
	}
	c.close()
	waitFor(t, "disconnect cleanup", func() bool { return srv.OpenCursors() == 0 })
}

// TestCtxCancelAbandonsQuery: cancelling the ctx mid-drain returns
// promptly with the ctx error (not an IO error), the server-side
// cursor is released (cooperative killCursor or disconnect cleanup),
// and the RemoteConn remains usable for the next query.
func TestCtxCancelAbandonsQuery(t *testing.T) {
	s := openStore(t, core.Hil, 2, 1500)
	srv, addr := startOneServer(t, s, ServerOptions{})
	proxy, err := NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	rc := connectRemote(t, s, []string{proxy.Addr()}, Options{BatchSize: 1})

	// Every client→server chunk is delayed, so the batch-1 getMore
	// loop is guaranteed to still be in flight when the cancel lands.
	proxy.SetLatency(20 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	f, _, _ := s.Filter(core.STQuery{Rect: testRect, From: testStart, To: testStart.Add(7 * 24 * time.Hour)})
	start := time.Now()
	_, err = rc.Query(ctx, s.Cluster().Shards()[0], f, nil, query.Opts{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v — the socket was not abandoned", elapsed)
	}
	proxy.SetLatency(0)
	waitFor(t, "cursor release after cancel", func() bool { return srv.OpenCursors() == 0 })

	// The conn pool recovered: the same query, uncancelled, completes.
	res, err := rc.Query(context.Background(), s.Cluster().Shards()[0], f, nil, query.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) == 0 {
		t.Fatal("expected documents after recovery")
	}
}

// TestMidFrameDisconnect: a connection severed mid-frame surfaces as
// a torn frame classified transient — the router's retry machinery
// redials and succeeds.
func TestMidFrameDisconnect(t *testing.T) {
	s := openStore(t, core.Hil, 2, 800)
	_, addr := startOneServer(t, s, ServerOptions{})
	proxy, err := NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	rc := connectRemote(t, s, []string{proxy.Addr()}, Options{})

	f, _, _ := s.Filter(core.STQuery{Rect: testRect, From: testStart, To: testStart.Add(7 * 24 * time.Hour)})
	proxy.CutAfter(5) // tear the next reply frame mid-header
	_, err = rc.Query(context.Background(), s.Cluster().Shards()[0], f, nil, query.Opts{})
	if err == nil || !sharding.IsTransient(err) {
		t.Fatalf("expected transient shard error from mid-frame cut, got %v", err)
	}

	// The cut is disarmed after firing; a router-driven retry through
	// the same RemoteConn succeeds end to end.
	s.Cluster().SetConn(rc)
	defer s.Cluster().SetConn(nil)
	res := s.Query(core.STQuery{Rect: testRect, From: testStart, To: testStart.Add(24 * time.Hour)})
	if res.Stats.Partial {
		t.Fatalf("expected complete result after redial: %+v", res.Stats)
	}
}

// TestPoolConcurrentQueries hammers one RemoteConn from many
// goroutines — the checkout/return race surface the RACE_PKGS gate
// watches.
func TestPoolConcurrentQueries(t *testing.T) {
	router := openStore(t, core.Hil, 4, 1000)
	backend := openStore(t, core.Hil, 4, 1000)
	addrs := startServers(t, backend, 2, ServerOptions{})
	rc := connectRemote(t, router, addrs, Options{BatchSize: 16})
	router.Cluster().SetConn(rc)
	defer router.Cluster().SetConn(nil)

	want := len(openStore(t, core.Hil, 4, 1000).Query(core.STQuery{
		Rect: testRect, From: testStart, To: testStart.Add(24 * time.Hour),
	}).Docs)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				res := router.Query(core.STQuery{Rect: testRect, From: testStart, To: testStart.Add(24 * time.Hour)})
				if len(res.Docs) != want {
					errs <- errors.New("result drift under concurrency")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestRouterDaemonDifferential: the mongos-style daemon answers the
// client-facing op with results byte-identical to calling the store
// directly.
func TestRouterDaemonDifferential(t *testing.T) {
	router := openStore(t, core.Hil, 3, 1500)
	backend := openStore(t, core.Hil, 3, 1500)
	addrs := startServers(t, backend, 2, ServerOptions{})
	rc := connectRemote(t, router, addrs, Options{})
	router.Cluster().SetConn(rc)
	defer router.Cluster().SetConn(nil)

	rs := NewRouterServer(router, AdmitOptions{})
	addr, err := rs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	cl, err := DialRouter(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	baseline := openStore(t, core.Hil, 3, 1500)
	for i, q := range queryMatrix() {
		want := baseline.Query(q)
		got, err := cl.Query(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		assertSameDocs(t, "router daemon", want.Docs, got.Docs)
		if got.Stats.NReturned != want.Stats.NReturned || got.Stats.Nodes != want.Stats.Nodes {
			t.Fatalf("query %d: stats diverge: %+v vs %+v", i, got.Stats, want.Stats)
		}
	}
}

// stepCancelCtx is a context whose Err() flips to Canceled after the
// first check, with Done() == nil so roundTrip never arms its socket
// watchdog. It makes the cooperative cancellation point in the
// getMore drain loop deterministic: the first check (in Query, before
// the dial) passes, the second (between batches) observes the cancel
// — on a connection whose stream is perfectly healthy.
type stepCancelCtx struct {
	context.Context
	calls atomic.Int32
}

func (c *stepCancelCtx) Done() <-chan struct{} { return nil }
func (c *stepCancelCtx) Err() error {
	if c.calls.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}

// TestCtxCancelMidGetMoreKillsCursor pins the cooperative half of
// cursor hygiene: a ctx cancelled between batches issues killCursor
// on the still-healthy connection (no TTL reaper involved — the
// cursor is gone immediately), and the pooled conn stays reusable.
func TestCtxCancelMidGetMoreKillsCursor(t *testing.T) {
	leakcheck.Check(t)
	s := openStore(t, core.Hil, 2, 1500)
	srv, addr := startOneServer(t, s, ServerOptions{})
	rc := connectRemote(t, s, []string{addr}, Options{BatchSize: 1})

	f, _, _ := s.Filter(core.STQuery{Rect: testRect, From: testStart, To: testStart.Add(7 * 24 * time.Hour)})
	ctx := &stepCancelCtx{Context: context.Background()}
	_, err := rc.Query(ctx, s.Cluster().Shards()[0], f, nil, query.Opts{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	// killCursor ran synchronously on the healthy conn: no waiting, no
	// reaper — the cursor must already be gone.
	if n := srv.OpenCursors(); n != 0 {
		t.Fatalf("OpenCursors = %d immediately after cancel, want 0 (cooperative killCursor)", n)
	}

	// The connection survived the cooperative path and is reusable.
	res, err := rc.Query(context.Background(), s.Cluster().Shards()[0], f, nil, query.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) == 0 {
		t.Fatal("expected documents on the reused conn")
	}
}

// TestReaperVsGetMoreRace hammers batch-1 getMore streams while an
// aggressive TTL reaper expires cursors underneath them: every reply
// must be a clean QueryReply or a structured cursor-not-found error,
// never a torn conn — and the -race gate watches the cursor table.
func TestReaperVsGetMoreRace(t *testing.T) {
	leakcheck.Check(t)
	s := openStore(t, core.Hil, 2, 1500)
	srv, addr := startOneServer(t, s, ServerOptions{CursorTTL: 20 * time.Millisecond})

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := dial(addr, Options{})
			if err != nil {
				errs <- err
				return
			}
			defer c.close()
			for i := 0; i < 20; i++ {
				op, body, err := c.roundTrip(nil, wire.OpQuery, rawQueryBody(t, s, 1))
				if err != nil || op != wire.OpQueryReply {
					errs <- fmt.Errorf("query: op %d, err %v", op, err)
					return
				}
				reply, err := wire.DecodeQueryReply(body)
				if err != nil {
					errs <- err
					return
				}
				for cur := reply.Cursor; cur != 0; {
					if i%3 == 0 {
						// Let some cursors go idle so the reaper races the
						// getMore that follows.
						time.Sleep(25 * time.Millisecond)
					}
					op, body, err := c.roundTrip(nil, wire.OpGetMore, wire.GetMore{Cursor: cur, BatchSize: 64}.Encode(nil))
					if err != nil {
						errs <- fmt.Errorf("getMore: %v", err)
						return
					}
					switch op {
					case wire.OpQueryReply:
						next, err := wire.DecodeQueryReply(body)
						if err != nil {
							errs <- err
							return
						}
						cur = next.Cursor
					case wire.OpError:
						// Reaped underneath us: a clean structured error on a
						// still-healthy conn is the contract.
						cur = 0
					default:
						errs <- fmt.Errorf("unexpected op %d", op)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	waitFor(t, "cursor table drain", func() bool { return srv.OpenCursors() == 0 })
}

// TestConnectRejectsMismatchedFingerprints: servers constructed from
// different data cannot be assembled into one logical cluster.
func TestConnectRejectsMismatchedFingerprints(t *testing.T) {
	a := openStore(t, core.Hil, 2, 500)
	b := openStore(t, core.Hil, 2, 600) // different content
	_, addrA := startOneServer(t, a, ServerOptions{})
	_, addrB := startOneServer(t, b, ServerOptions{})
	if _, err := Connect([]string{addrA, addrB}, Options{}); err == nil {
		t.Fatal("expected fingerprint mismatch error")
	}
}
