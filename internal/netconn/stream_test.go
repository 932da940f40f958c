package netconn

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bson"
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

// TestCtxCancelAbandonsQuery: cancelling the ctx while the shard
// server is still executing returns promptly with the ctx error (not
// an IO error), and the RemoteConn remains usable for the next query.
func TestCtxCancelAbandonsQuery(t *testing.T) {
	s := openStore(t, core.Hil, 2, 1500)
	// Shard 0's executions are slowed, so every reply frame of the
	// answer is still to come when the cancel lands.
	const latency = time.Second
	fc := sharding.NewFaultConn(nil, 1)
	fc.SetFault(0, sharding.FaultSpec{Latency: latency})
	_, addr := startOneServer(t, s, ServerOptions{Conn: fc})
	rc := connectRemote(t, s, []string{addr}, Options{})
	rc.batch = 1

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	f, _, _ := s.Filter(core.STQuery{Rect: testRect, From: testStart, To: testStart.Add(7 * 24 * time.Hour)})
	start := time.Now()
	_, err := rc.Query(ctx, s.Cluster().Shards()[0], f, nil, query.Opts{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > latency/2 {
		t.Fatalf("cancellation took %v — the socket was not abandoned", elapsed)
	}

	// The conn pool recovered: the same query, uncancelled, completes.
	fc.SetFault(0, sharding.FaultSpec{})
	res, err := rc.Query(context.Background(), s.Cluster().Shards()[0], f, nil, query.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) == 0 {
		t.Fatal("expected documents after recovery")
	}
}

// TestCtxCancelMidStream: a ctx cancelled after the first reply frame
// of a multi-frame answer has reached the client returns
// context.Canceled promptly, discards the connection instead of
// pooling it, lets the server's handler for it exit, and leaves the
// RemoteConn answering the next query byte-identically to LocalConn.
func TestCtxCancelMidStream(t *testing.T) {
	leakcheck.Check(t)
	s := openStore(t, core.Hil, 2, 1500)
	srv, addr := startOneServer(t, s, ServerOptions{})
	tap := newFrameTap(t, addr)
	t.Cleanup(tap.wg.Wait)
	t.Cleanup(func() { tap.ln.Close() })
	rc := connectRemote(t, s, []string{tap.ln.Addr().String()}, Options{})
	rc.batch = 1

	shard := s.Cluster().Shards()[0]
	f, _, _ := s.Filter(core.STQuery{Rect: testRect, From: testStart, To: testStart.Add(7 * 24 * time.Hour)})
	want, err := sharding.LocalConn{}.Query(context.Background(), shard, f, s.Cluster().Options().QueryConfig, query.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Docs) < 2 {
		t.Fatalf("answer of %d documents is not multi-frame at frame size 1", len(want.Docs))
	}
	idle := func() int {
		p := rc.pools[shard.ID]
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.idle)
	}
	if n := idle(); n != 1 {
		t.Fatalf("%d idle conns before the query, want the one Connect pooled", n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tap.stallAfter(wire.OpQueryReply, cancel)
	start := time.Now()
	if _, err := rc.Query(ctx, shard, f, nil, query.Opts{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v — the socket was not abandoned", elapsed)
	}
	if n := idle(); n != 0 {
		t.Fatalf("%d idle conns after a cancelled stream, want the conn discarded", n)
	}
	waitFor(t, "the server to drop the abandoned conn", func() bool {
		srv.lst.mu.Lock()
		defer srv.lst.mu.Unlock()
		return len(srv.lst.conns) == 0
	})

	got, err := rc.Query(context.Background(), shard, f, nil, query.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameDocs(t, "query after a cancelled stream", want.Docs, got.Docs)
}

// TestRouterClientDropMidStream: a client that stalls on a
// multi-frame routed answer and then drops its connection costs the
// router nothing: the query's admission slot is released, the
// router's handler for the conn exits, and the next query answers
// byte-identically to the embedded store.
func TestRouterClientDropMidStream(t *testing.T) {
	leakcheck.Check(t)
	store := openStore(t, core.Hil, 2, 1500)
	all := core.STQuery{Rect: testExtent, From: testStart, To: testStart.Add(7 * 24 * time.Hour)}
	want := store.Query(all)
	if len(want.Docs) <= DefaultBatchSize {
		t.Fatalf("answer of %d documents is not multi-frame", len(want.Docs))
	}
	rs := NewRouterServer(store, AdmitOptions{})
	addr, err := rs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.Close)
	tap := newFrameTap(t, addr)
	t.Cleanup(tap.wg.Wait)
	t.Cleanup(func() { tap.ln.Close() })
	cl, err := DialRouter(tap.ln.Addr().String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	// The query checks out the one pooled conn; once its first reply
	// frame has arrived the client hangs up.
	nc := cl.pool.idle[0].nc
	tap.stallAfter(wire.OpQueryReply, func() { nc.Close() })
	if _, err := cl.Query(all); err == nil {
		t.Fatal("a dropped stream returned an answer")
	}
	if n := len(cl.pool.idle); n != 0 {
		t.Fatalf("%d idle conns after a dropped stream, want the conn discarded", n)
	}
	waitFor(t, "the router to release the slot and drop the conn", func() bool {
		rs.lst.mu.Lock()
		defer rs.lst.mu.Unlock()
		return len(rs.lst.conns) == 0 && rs.gate.inFlight() == 0
	})

	got, err := cl.Query(all)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDocs(t, "query after a dropped stream", want.Docs, got.Docs)
}

// holdConn executes in process, but lets a test decide who holds a
// server's admission slot: an execution on shard 0 reports on ran and
// then waits for contended, one on shard 1 waits for release.
type holdConn struct {
	ran       chan struct{}
	contended chan struct{}
	release   chan struct{}
	runs      atomic.Int32 // shard-0 executions
}

func (c *holdConn) Query(ctx context.Context, shard *sharding.Shard, f query.Filter, cfg *query.Config, opts query.Opts) (*query.Result, error) {
	wait := c.release
	if shard.ID != 1 {
		c.runs.Add(1)
		select {
		case c.ran <- struct{}{}:
		default:
		}
		wait = c.contended
	}
	select {
	case <-wait:
	case <-ctx.Done(): // the server is closing
		return nil, ctx.Err()
	}
	return sharding.LocalConn{}.Query(ctx, shard, f, cfg, opts)
}

// TestShedCannotInterruptAnswer: an answer streams under the one
// admission its query took. On a single-slot server a frame-size-1
// document query is contended while it executes, and the contender
// takes the slot the moment it is free; the answer still completes,
// byte-identical to LocalConn, from one execution. (A follow-up
// request for the rest of the answer would need a slot of its own and
// be shed.)
func TestShedCannotInterruptAnswer(t *testing.T) {
	leakcheck.Check(t)
	s := openStore(t, core.Hil, 2, 800)
	hc := &holdConn{ran: make(chan struct{}, 1), contended: make(chan struct{}), release: make(chan struct{})}
	_, addr := startOneServer(t, s, ServerOptions{Conn: hc, Admit: AdmitOptions{
		MaxInFlight:   1,
		AdmissionWait: time.Millisecond,
	}})
	// The reader's requests are delayed on their way to the server, so
	// the contender, which dials direct, wins the freed slot by a wide
	// margin over any request the reader could send after the first
	// frame.
	proxy, err := NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	rc := connectRemote(t, s, []string{proxy.Addr()}, Options{})
	rc.batch = 1
	proxy.SetLatency(100 * time.Millisecond)

	shard := s.Cluster().Shards()[0]
	f, _, _ := s.Filter(core.STQuery{Rect: testRect, From: testStart, To: testStart.Add(7 * 24 * time.Hour)})
	want, err := sharding.LocalConn{}.Query(context.Background(), shard, f, s.Cluster().Options().QueryConfig, query.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Docs) < 2 {
		t.Fatalf("answer of %d documents is not multi-frame at frame size 1", len(want.Docs))
	}

	type outcome struct {
		res *query.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := rc.Query(context.Background(), shard, f, nil, query.Opts{})
		done <- outcome{res, err}
	}()
	<-hc.ran // the reader's query holds the slot

	contender, err := dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer contender.close()
	body, err := wire.Query{Shard: 1, BatchSize: maxFrameDocs, Filter: f}.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	contended := make(chan error, 1)
	go func() {
		for sheds := 0; ; {
			op, rbody, err := contender.roundTrip(wire.OpQuery, body)
			if err != nil || op != wire.OpError {
				contended <- err // admitted and answered, or broken
				return
			}
			if er, err := wire.DecodeErrorReply(rbody); err != nil || er.Code != wire.ErrCodeOverload {
				contended <- fmt.Errorf("contender: want an overload shed, got %+v (%v)", er, err)
				return
			}
			if sheds++; sheds == 1 {
				close(hc.contended) // shed once: let the reader's execution finish
			}
		}
	}()

	r := <-done
	close(hc.release)
	if err := <-contended; err != nil {
		t.Fatal(err)
	}
	if r.err != nil {
		t.Fatalf("the answer was interrupted: %v", r.err)
	}
	assertSameDocs(t, "contended answer", want.Docs, r.res.Docs)
	if n := hc.runs.Load(); n != 1 {
		t.Fatalf("%d executions on shard 0, want the one admission", n)
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
	rc := connectRemote(t, router, addrs, Options{})
	rc.batch = 16
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

// blobStore opens a store of the given shard count holding n test
// records, each padded with a blob of the given size, plus the extra
// records.
func blobStore(t *testing.T, shards, n, blob int, extra ...core.Record) *core.Store {
	t.Helper()
	recs := testRecords(n)
	for i := range recs {
		recs[i].Fields = append(recs[i].Fields, bson.Elem{Key: "blob", Value: strings.Repeat(string(rune('a'+i)), blob)})
	}
	store, err := core.Open(core.Config{Approach: core.Hil, Shards: shards, DataExtent: testExtent})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Load(append(recs, extra...)); err != nil {
		t.Fatal(err)
	}
	return store
}

// largeWindow matches blobStore's n padded records (they are one
// minute apart from testStart) and nothing an hour later.
var largeWindow = core.STQuery{Rect: testExtent, From: testStart, To: testStart.Add(time.Hour)}

// TestShardHopSplitsLargeAnswer: a shard's answer of 6 × 7 MiB — 512
// documents per frame would make one 42 MiB frame that no reader
// accepts — travels ShardServer → RemoteConn byte-identical to
// LocalConn, in frames cut by bytes.
func TestShardHopSplitsLargeAnswer(t *testing.T) {
	store := blobStore(t, 1, 6, 7<<20)
	shard := store.Cluster().Shards()[0]
	f, _, _ := store.Filter(largeWindow)
	want, err := sharding.LocalConn{}.Query(context.Background(), shard, f, store.Cluster().Options().QueryConfig, query.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Docs) != 6 {
		t.Fatalf("local answer has %d documents, want 6", len(want.Docs))
	}
	_, addr := startOneServer(t, store, ServerOptions{})
	rc := connectRemote(t, store, []string{addr}, Options{})
	got, err := rc.Query(context.Background(), shard, f, nil, query.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameDocs(t, "42 MiB shard answer", want.Docs, got.Docs)
	if got.Stats.KeysExamined != want.Stats.KeysExamined || got.Stats.DocsExamined != want.Stats.DocsExamined {
		t.Fatalf("stats diverge: %+v vs %+v", got.Stats, want.Stats)
	}
}

// TestRouterStreamsLargeAnswer: a routed answer of 6 × 7 MiB travels
// Client → RouterServer → RemoteConn → ShardServer byte-identical to
// the embedded store's, and the same pooled connection then serves
// the next query. A document too large for any frame is refused with
// a structured, non-transient error before any frame, and the
// connection stays usable.
func TestRouterStreamsLargeAnswer(t *testing.T) {
	store := blobStore(t, 1, 6, 7<<20)
	one := core.STQuery{Rect: testExtent, From: testStart, To: testStart.Add(time.Hour), Limit: 1, Sort: core.SortDateDesc}
	want, wantOne := store.Query(largeWindow), store.Query(one)
	if len(want.Docs) != 6 {
		t.Fatalf("embedded answer has %d documents, want 6", len(want.Docs))
	}
	// The store is its own shard server: its router's executions cross
	// the shard hop to the same data.
	_, saddr := startOneServer(t, store, ServerOptions{})
	store.Cluster().SetConn(connectRemote(t, store, []string{saddr}, Options{}))
	defer store.Cluster().SetConn(nil)
	cl := dialRouterServer(t, store)
	pooled := cl.pool.idle[0]

	got, err := cl.Query(largeWindow)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDocs(t, "42 MiB routed answer", want.Docs, got.Docs)
	if got.Stats.Nodes != want.Stats.Nodes || got.Stats.MaxDocsExamined != want.Stats.MaxDocsExamined || got.Stats.Partial {
		t.Fatalf("stats diverge: %+v vs %+v", got.Stats, want.Stats)
	}
	if n := len(cl.pool.idle); n != 1 || cl.pool.idle[0] != pooled {
		t.Fatalf("%d idle connections after the answer, want the one that carried it", n)
	}
	next, err := cl.Query(one)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDocs(t, "after the large answer", wantOne.Docs, next.Docs)

	// One document over what a frame can carry, beside small ones.
	huge := testRecords(1)[0]
	huge.Time = testStart.Add(2 * time.Hour)
	huge.Fields = append(huge.Fields, bson.Elem{Key: "blob", Value: strings.Repeat("z", wire.MaxFrameBody)})
	over := blobStore(t, 1, 3, 16, huge)
	ocl := dialRouterServer(t, over)
	_, err = ocl.Query(core.STQuery{Rect: testExtent, From: testStart, To: testStart.Add(3 * time.Hour)})
	var se *ServerError
	if !errors.As(err, &se) || se.Transient || !strings.Contains(se.Message, " of 4 encodes to ") {
		t.Fatalf("oversized document: %v, want a non-transient *ServerError naming the document", err)
	}
	if n := len(ocl.pool.idle); n != 1 {
		t.Fatalf("%d idle connections after the refusal, want the one that carried it", n)
	}
	small := core.STQuery{Rect: testExtent, From: testStart, To: testStart.Add(time.Hour)}
	got, err = ocl.Query(small)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDocs(t, "after the refusal", over.Query(small).Docs, got.Docs)
}

// dialRouterServer serves the store through a RouterServer and dials
// it.
func dialRouterServer(t *testing.T, store *core.Store) *Client {
	t.Helper()
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
	return cl
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
