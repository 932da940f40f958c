package netconn

import (
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/sharding"
	"repro/internal/wire"
)

// slowServer starts one ShardServer over all shards whose executions
// are slowed by latency on every shard, so in-flight slots stay
// occupied long enough for admission races to be deterministic.
func slowServer(t testing.TB, s *core.Store, latency time.Duration, admit AdmitOptions) (*ShardServer, string) {
	t.Helper()
	fc := sharding.NewFaultConn(nil, 1)
	for _, sh := range s.Cluster().Shards() {
		fc.SetFault(sh.ID, sharding.FaultSpec{Latency: latency})
	}
	return startOneServer(t, s, ServerOptions{Conn: fc, Admit: admit})
}

// TestAdmissionShedsWithOverloadCode: with a single in-flight slot
// occupied, a second query waits out the admission queue and is shed
// with the structured overload code and a retry-after hint — while
// the admitted query completes normally and the shed counter moves.
func TestAdmissionShedsWithOverloadCode(t *testing.T) {
	leakcheck.Check(t)
	s := openStore(t, core.Hil, 2, 800)
	srv, addr := slowServer(t, s, 250*time.Millisecond, AdmitOptions{
		MaxInFlight:   1,
		AdmissionWait: 30 * time.Millisecond,
	})
	if got := srv.State(); got != wire.StateReady {
		t.Fatalf("State = %s, want ready", wire.StateName(got))
	}

	a, err := dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.close()
	b, err := dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()

	type replyT struct {
		op   byte
		body []byte
		err  error
	}
	aDone := make(chan replyT, 1)
	go func() {
		op, body, err := a.roundTrip(wire.OpQuery, rawQueryBody(t, s, 1000))
		aDone <- replyT{op, body, err}
	}()
	time.Sleep(80 * time.Millisecond) // a holds the only slot by now

	op, body, err := b.roundTrip(wire.OpQuery, rawQueryBody(t, s, 1000))
	if err != nil || op != wire.OpError {
		t.Fatalf("saturated query: op %d, err %v", op, err)
	}
	er, err := wire.DecodeErrorReply(body)
	if err != nil {
		t.Fatal(err)
	}
	if er.Code != wire.ErrCodeOverload || !er.Transient || er.RetryAfterNS <= 0 {
		t.Fatalf("want transient overload shed with retry hint, got %+v", er)
	}

	if r := <-aDone; r.err != nil || r.op != wire.OpQueryReply {
		t.Fatalf("admitted query: op %d, err %v", r.op, r.err)
	}

	// The server releases the admitted query's slot right after flushing
	// its reply, so the client can get here first: wait for the release.
	var stats wire.StatsReply
	waitFor(t, "the in-flight slot to be released after both replies", func() bool {
		if _, stats, err = Probe(addr, Options{}); err != nil {
			t.Fatal(err)
		}
		return stats.InFlight == 0
	})
	if stats.Shed == 0 {
		t.Fatalf("stats.Shed = 0 after a shed, want >= 1: %+v", stats)
	}
	if stats.State != wire.StateReady || stats.HeapInuse == 0 {
		t.Fatalf("stats health looks wrong: %+v", stats)
	}
}

// TestOverloadRetryAfterFeedsRouterBackoff: a router hammering a
// single-slot server gets shed, honours the retry-after floor through
// the existing retry machinery, and still converges on complete
// results — overload degrades into latency, not partial answers. The
// router runs at its default resilience. The server admits about two
// queued requests, so a burst's tail is shed, and it asks for a retry
// after several service times, so the shed requests come back to a
// drained queue within the router's three attempts.
func TestOverloadRetryAfterFeedsRouterBackoff(t *testing.T) {
	leakcheck.Check(t)
	router := openStore(t, core.Hil, 2, 800)
	backend := openStore(t, core.Hil, 2, 800)
	_, addr := slowServer(t, backend, 20*time.Millisecond, AdmitOptions{
		MaxInFlight:    1,
		AdmissionWait:  30 * time.Millisecond,
		RetryAfterHint: 100 * time.Millisecond,
	})
	rc := connectRemote(t, router, []string{addr}, Options{})
	router.Cluster().SetConn(rc)
	defer router.Cluster().SetConn(nil)

	want := len(openStore(t, core.Hil, 2, 800).Query(core.STQuery{
		Rect: testRect, From: testStart, To: testStart.Add(24 * time.Hour),
	}).Docs)

	var mu sync.Mutex
	totalRetries := 0
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				res := router.Query(core.STQuery{Rect: testRect, From: testStart, To: testStart.Add(24 * time.Hour)})
				if res.Stats.Partial || len(res.Docs) != want {
					errs <- errors.New("query did not converge under overload")
					return
				}
				mu.Lock()
				totalRetries += res.Stats.Retries
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}

	_, stats, err := Probe(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shed == 0 {
		t.Fatal("expected the single-slot server to shed at least once")
	}
	if totalRetries == 0 {
		t.Fatal("expected shed queries to retry through the resilience machinery")
	}
}

// TestConnCapShedsAndRecovers: the connection over the cap is greeted
// and refused with a structured overload message; once a slot frees,
// dialReady's jittered retry gets in.
func TestConnCapShedsAndRecovers(t *testing.T) {
	leakcheck.Check(t)
	s := openStore(t, core.Hil, 2, 500)
	_, addr := startOneServer(t, s, ServerOptions{Admit: AdmitOptions{MaxConns: 1}})

	first, err := dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dial(addr, Options{}); err == nil {
		t.Fatal("expected the over-cap dial to be refused")
	}

	// Free the slot, then a WaitReady dial must eventually succeed
	// (the conns map is pruned asynchronously after close).
	first.close()
	c, err := dialReady(addr, Options{WaitReady: 5 * time.Second})
	if err != nil {
		t.Fatalf("dial after slot freed: %v", err)
	}
	c.close()
}

// TestMemWatermarkSheds: a 1-byte watermark is always exceeded, so
// every query is shed with the overload code without executing.
func TestMemWatermarkSheds(t *testing.T) {
	s := openStore(t, core.Hil, 2, 500)
	_, addr := startOneServer(t, s, ServerOptions{Admit: AdmitOptions{MemWatermark: 1}})
	c, err := dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	op, body, err := c.roundTrip(wire.OpQuery, rawQueryBody(t, s, 1000))
	if err != nil || op != wire.OpError {
		t.Fatalf("op %d, err %v", op, err)
	}
	er, err := wire.DecodeErrorReply(body)
	if err != nil {
		t.Fatal(err)
	}
	if er.Code != wire.ErrCodeOverload || !er.Transient {
		t.Fatalf("want overload shed, got %+v", er)
	}
	// Pings stay exempt: health stays observable above the watermark.
	if op, _, err := c.roundTrip(wire.OpPing, nil); err != nil || op != wire.OpPong {
		t.Fatalf("ping above watermark: op %d, err %v", op, err)
	}
}

// TestDrainFinishesInFlight: Drain lets the admitted query finish
// (byte-delivered reply), refuses new work with the draining code,
// and reports a clean drain inside the budget.
func TestDrainFinishesInFlight(t *testing.T) {
	leakcheck.Check(t)
	s := openStore(t, core.Hil, 2, 800)
	srv, addr := slowServer(t, s, 250*time.Millisecond, AdmitOptions{})

	a, err := dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.close()
	b, err := dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()

	type replyT struct {
		op  byte
		err error
	}
	aDone := make(chan replyT, 1)
	go func() {
		op, _, err := a.roundTrip(wire.OpQuery, rawQueryBody(t, s, 1000))
		aDone <- replyT{op, err}
	}()
	time.Sleep(80 * time.Millisecond) // a's query is in flight

	drained := make(chan bool, 1)
	go func() { drained <- srv.Drain(5 * time.Second) }()
	waitFor(t, "draining state", func() bool { return srv.State() == wire.StateDraining })

	// New work on an existing conn is refused with the draining code.
	op, body, err := b.roundTrip(wire.OpQuery, rawQueryBody(t, s, 1000))
	if err != nil || op != wire.OpError {
		t.Fatalf("query during drain: op %d, err %v", op, err)
	}
	if er, err := wire.DecodeErrorReply(body); err != nil || er.Code != wire.ErrCodeDraining || !er.Transient {
		t.Fatalf("want transient draining shed, got %+v, %v", er, err)
	}

	// The in-flight query still completes with its real reply.
	if r := <-aDone; r.err != nil || r.op != wire.OpQueryReply {
		t.Fatalf("in-flight query during drain: op %d, err %v", r.op, r.err)
	}
	if !<-drained {
		t.Fatal("Drain reported a dirty shutdown despite the in-flight query finishing")
	}

	// New dials are refused outright: the listener is gone.
	if _, err := dial(addr, Options{}); err == nil {
		t.Fatal("expected dial after drain to fail")
	}
}

// TestBadFrameGetsStructuredError pins the malformed-frame goodbye:
// an oversized length and a checksum mismatch both elicit a
// structured bad-frame error before the conn closes, while a torn
// stream (disconnect mid-frame) is dropped silently.
func TestBadFrameGetsStructuredError(t *testing.T) {
	s := openStore(t, core.Hil, 2, 500)
	_, addr := startOneServer(t, s, ServerOptions{})

	expectBadFrameReply := func(name string, raw []byte) {
		t.Helper()
		c, err := dial(addr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.close()
		if _, err := c.nc.Write(raw); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		_ = c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		op, body, err := wire.ReadFrame(c.br)
		if err != nil || op != wire.OpError {
			t.Fatalf("%s: want structured error frame, got op %d, err %v", name, op, err)
		}
		er, err := wire.DecodeErrorReply(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if er.Code != wire.ErrCodeBadFrame || er.Transient {
			t.Fatalf("%s: want hard bad-frame code, got %+v", name, er)
		}
		// The goodbye is final: the server hangs up right after.
		if _, _, err := wire.ReadFrame(c.br); !errors.Is(err, io.EOF) {
			t.Fatalf("%s: want EOF after goodbye, got %v", name, err)
		}
	}

	// Half 1: implausible length field (> MaxFrameBody).
	oversized := []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}
	expectBadFrameReply("oversized length", oversized)

	// Half 2: parseable header, corrupted body checksum.
	corrupt := wire.AppendFrame(nil, wire.OpPing, []byte("x"))
	corrupt[len(corrupt)-1] ^= 0xff
	expectBadFrameReply("checksum mismatch", corrupt)

	// A torn stream gets no goodbye: the writer vanished.
	c, err := dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	whole := wire.AppendFrame(nil, wire.OpPing, []byte("hello"))
	if _, err := c.nc.Write(whole[:6]); err != nil {
		t.Fatal(err)
	}
	cw, ok := c.nc.(interface{ CloseWrite() error })
	if !ok {
		t.Fatal("test conn cannot half-close")
	}
	_ = cw.CloseWrite()
	_ = c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := wire.ReadFrame(c.br); !errors.Is(err, io.EOF) {
		t.Fatalf("torn stream: want silent EOF, got %v", err)
	}
}

// TestRouterShedsWithServerError: the router daemon sheds with the
// typed ServerError clients can branch on.
func TestRouterShedsWithServerError(t *testing.T) {
	leakcheck.Check(t)
	router := openStore(t, core.Hil, 2, 500)
	rs := NewRouterServer(router, AdmitOptions{MemWatermark: 1})
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

	_, err = cl.Query(core.STQuery{Rect: testRect, From: testStart, To: testStart.Add(24 * time.Hour)})
	if !IsOverload(err) {
		t.Fatalf("want typed overload error, got %v", err)
	}
	var se *ServerError
	if !errors.As(err, &se) || se.RetryAfter <= 0 {
		t.Fatalf("want retry-after hint in ServerError, got %v", err)
	}
}

// TestDialBackoffDeterministicAndCapped: same (addr, attempt) → same
// delay; the schedule grows and respects the cap — the PR 3 jitter
// idiom applied to redials.
func TestDialBackoffDeterministicAndCapped(t *testing.T) {
	for attempt := 0; attempt < 12; attempt++ {
		d1 := dialBackoff("127.0.0.1:7701", attempt)
		d2 := dialBackoff("127.0.0.1:7701", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: nondeterministic backoff %v vs %v", attempt, d1, d2)
		}
		if d1 <= 0 || d1 > 250*time.Millisecond {
			t.Fatalf("attempt %d: delay %v outside (0, 250ms]", attempt, d1)
		}
	}
	if dialBackoff("a", 0) == dialBackoff("b", 0) {
		t.Fatal("expected different addresses to jitter apart")
	}
}

// TestQueryDeadlineShedsAsOverload: a query that outlives the
// server-side deadline is reported as an overload shed with a retry
// hint, not a generic failure.
func TestQueryDeadlineShedsAsOverload(t *testing.T) {
	s := openStore(t, core.Hil, 2, 800)
	_, addr := slowServer(t, s, 300*time.Millisecond, AdmitOptions{
		QueryDeadline: 50 * time.Millisecond,
	})
	c, err := dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	op, body, err := c.roundTrip(wire.OpQuery, rawQueryBody(t, s, 1000))
	if err != nil || op != wire.OpError {
		t.Fatalf("op %d, err %v", op, err)
	}
	er, err := wire.DecodeErrorReply(body)
	if err != nil {
		t.Fatal(err)
	}
	if er.Code != wire.ErrCodeOverload || !er.Transient || er.RetryAfterNS <= 0 {
		t.Fatalf("want overload shed from server deadline, got %+v", er)
	}
}
