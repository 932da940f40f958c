package netconn

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// AdmitOptions configures a server's admission control: the knobs
// that decide when a request is executed, queued briefly, or shed
// with a structured overload error. The zero value (filled by
// withDefaults) gives a bounded but permissive server; every field
// is also a daemon flag.
type AdmitOptions struct {
	// MaxConns caps concurrently open connections (default 256).
	// Connections over the cap are greeted, refused with an overload
	// error, and closed — they never reach the accept map.
	MaxConns int
	// MaxInFlight caps concurrently executing requests (default
	// 4×GOMAXPROCS). Query and insert frames take a slot, held by a
	// query until the last frame of its answer is written; ping and
	// stats stay exempt so observability keeps working on a saturated
	// server.
	MaxInFlight int
	// AdmissionWait is how long a request may wait for a free slot
	// before being shed (default 100ms): a short deadline-aware queue
	// that absorbs bursts without building an unbounded backlog.
	AdmissionWait time.Duration
	// RetryAfterHint is the backoff hint carried in overload errors
	// (default 25ms). Clients feed it into their retry schedule.
	RetryAfterHint time.Duration
	// MemWatermark sheds new requests while the Go heap-in-use is
	// above this many bytes. 0 disables the check.
	MemWatermark uint64
	// QueryDeadline bounds one server-side query execution; expiry is
	// reported as an overload shed (the server was too slow, back
	// off). 0 disables it.
	QueryDeadline time.Duration
	// DrainTimeout bounds Close's graceful drain: how long to wait
	// for in-flight requests before force-closing (default 5s).
	DrainTimeout time.Duration
}

// Defaults for AdmitOptions.
const (
	DefaultMaxConns       = 256
	DefaultAdmissionWait  = 100 * time.Millisecond
	DefaultRetryAfterHint = 25 * time.Millisecond
	DefaultDrainTimeout   = 5 * time.Second
)

func (o AdmitOptions) withDefaults() AdmitOptions {
	if o.MaxConns <= 0 {
		o.MaxConns = DefaultMaxConns
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if o.AdmissionWait <= 0 {
		o.AdmissionWait = DefaultAdmissionWait
	}
	if o.RetryAfterHint <= 0 {
		o.RetryAfterHint = DefaultRetryAfterHint
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = DefaultDrainTimeout
	}
	return o
}

// gate is a server's admission state: a bounded in-flight semaphore,
// the health state machine, and the shed counter. One gate is shared
// by every connection handler of a server.
type gate struct {
	opts  AdmitOptions
	slots chan struct{}
	state atomic.Uint32 // wire.StateStarting | StateReady | StateDraining
	shed  atomic.Uint64

	// heap-in-use is sampled lazily: ReadMemStats stops the world, so
	// the last sample is reused for up to memSampleTTL.
	memMu    sync.Mutex
	memAt    time.Time
	memInuse uint64
}

const memSampleTTL = 100 * time.Millisecond

func newGate(opts AdmitOptions) *gate {
	opts = opts.withDefaults()
	return &gate{opts: opts, slots: make(chan struct{}, opts.MaxInFlight)}
}

// admit takes an in-flight slot, waiting up to AdmissionWait. A nil
// return means admitted (the caller must release); otherwise the
// returned ErrorReply is the structured shed to send back.
func (g *gate) admit() *wire.ErrorReply {
	if g.state.Load() == uint32(wire.StateDraining) {
		g.shed.Add(1)
		return &wire.ErrorReply{
			Shard: -1, Transient: true, Code: wire.ErrCodeDraining,
			RetryAfterNS: int64(g.opts.RetryAfterHint),
			Message:      "server draining",
		}
	}
	if wm := g.opts.MemWatermark; wm > 0 {
		if heap := g.heapInuse(); heap > wm {
			g.shed.Add(1)
			return &wire.ErrorReply{
				Shard: -1, Transient: true, Code: wire.ErrCodeOverload,
				RetryAfterNS: int64(g.opts.RetryAfterHint),
				Message:      fmt.Sprintf("overloaded: heap %d above watermark %d", heap, wm),
			}
		}
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	t := time.NewTimer(g.opts.AdmissionWait)
	defer t.Stop()
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-t.C:
		g.shed.Add(1)
		return &wire.ErrorReply{
			Shard: -1, Transient: true, Code: wire.ErrCodeOverload,
			RetryAfterNS: int64(g.opts.RetryAfterHint),
			Message: fmt.Sprintf("overloaded: %d requests in flight, none finished in %v",
				g.opts.MaxInFlight, g.opts.AdmissionWait),
		}
	}
}

func (g *gate) release() { <-g.slots }

func (g *gate) inFlight() int { return len(g.slots) }

// overloadReply is the shed for a query whose server-side deadline
// expired mid-execution.
func (g *gate) overloadReply(msg string) *wire.ErrorReply {
	g.shed.Add(1)
	return &wire.ErrorReply{
		Shard: -1, Transient: true, Code: wire.ErrCodeOverload,
		RetryAfterNS: int64(g.opts.RetryAfterHint), Message: msg,
	}
}

// waitIdle blocks until no requests are in flight or the budget
// elapses; it reports whether the server went idle in time.
func (g *gate) waitIdle(budget time.Duration) bool {
	deadline := time.Now().Add(budget)
	for g.inFlight() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// heapInuse samples runtime heap-in-use, reusing a recent sample.
func (g *gate) heapInuse() uint64 {
	g.memMu.Lock()
	defer g.memMu.Unlock()
	if now := time.Now(); now.Sub(g.memAt) > memSampleTTL {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		g.memInuse = ms.HeapInuse
		g.memAt = now
	}
	return g.memInuse
}

// rejectConn is the over-cap connection goodbye: read the client's
// Hello (so the reply lands after the handshake it expects), answer
// with a structured overload error, close. Everything happens under
// one short deadline so a stalled dialer cannot pin the slot.
func rejectConn(nc net.Conn, g *gate) {
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(2 * time.Second))
	br := bufio.NewReader(nc)
	if op, _, err := wire.ReadFrame(br); err != nil || op != wire.OpHello {
		return
	}
	g.shed.Add(1)
	body := wire.ErrorReply{
		Shard: -1, Transient: true, Code: wire.ErrCodeOverload,
		RetryAfterNS: int64(g.opts.RetryAfterHint),
		Message:      fmt.Sprintf("overloaded: connection cap %d reached", g.opts.MaxConns),
	}.Encode(nil)
	bw := bufio.NewWriter(nc)
	if wire.WriteFrame(bw, wire.OpError, body) == nil {
		_ = bw.Flush()
	}
}
