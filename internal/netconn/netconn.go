// Package netconn is the cluster's TCP transport: the client side
// (RemoteConn, a sharding.ShardConn whose per-shard executions travel
// the internal/wire protocol to shard server processes) and the
// server side (ShardServer wrapping a loaded cluster's executor,
// RouterServer wrapping a whole store behind the mongos-style query
// op).
//
// Deployment model: there is no config-server protocol. Every process
// — router and shard servers alike — constructs the identical cluster
// deterministically (same generator seed and scale, or the same
// durable directory), so the router's chunk map matches the shards'
// data by construction. The handshake verifies this instead of
// trusting it: each HelloReply carries the cluster content
// fingerprint, and Connect refuses peers whose fingerprint disagrees.
package netconn

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/sharding"
	"repro/internal/wire"
)

// Options configures the client side of the transport.
type Options struct {
	// WaitReady keeps re-dialing a refused address for this long
	// during Connect — daemons that are still coming up answer as
	// soon as they bind (default 0: fail on first refusal).
	WaitReady time.Duration
	// AuthSecret, when non-empty, runs the mutual HMAC challenge at
	// every handshake: the client verifies the server's proof before
	// trusting it and answers the server's challenge before any op. A
	// secret-configured client refuses servers that do not require
	// authentication (so a spoofed server cannot silently strip it).
	AuthSecret []byte
	// Mutable marks a write-path connection: the peers' content
	// fingerprints legitimately change with every acknowledged batch,
	// so pools skip fingerprint pinning on re-dials and Connect skips
	// the cross-peer equality check (convergence is verified
	// explicitly, after writes quiesce, by whoever drives the writes).
	Mutable bool
}

// DefaultBatchSize is the documents a RemoteConn asks a shard server
// to put in each reply frame of an answer, and the documents a
// RouterServer puts in each frame of its own.
const DefaultBatchSize = 512

// The transport's fixed tuning.
const (
	// dialTimeout bounds each TCP dial + handshake.
	dialTimeout = 3 * time.Second
	// maxIdlePerHost caps the idle connections kept per address. A
	// checkout beyond the idle set dials a fresh connection; returns
	// beyond the cap close it.
	maxIdlePerHost = 4
	// Redials back off from dialBackoffBase, doubling to dialBackoffMax.
	dialBackoffBase = 5 * time.Millisecond
	dialBackoffMax  = 250 * time.Millisecond
)

// conn is one established, handshaken connection. A conn is owned by
// exactly one request at a time (checkout/return through its pool);
// there is no pipelining, so a request's frames can never interleave
// with another's.
type conn struct {
	nc    net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	hello wire.HelloReply
	// broken marks the conn unreturnable: its stream may be out of
	// sync (torn frame, poisoned deadline, unexpected op).
	broken bool
}

// dial establishes and handshakes one connection, running the HMAC
// challenge when opts.AuthSecret is set.
func dial(addr string, opts Options) (*conn, error) {
	deadline := time.Now().Add(dialTimeout)
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	c := &conn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
	// The handshake runs under the same deadline as the dial.
	_ = nc.SetDeadline(deadline)
	// Always carry a fresh nonce: an auth-enforcing server needs it
	// for its proof, and a secretless client still wants the server's
	// HelloReply (not a refusal) so it can report "configure a secret"
	// instead of a bare protocol error.
	hello := wire.Hello{Version: wire.ProtocolVersion, Nonce: wire.NewAuthNonce()}
	op, body, err := c.roundTrip(wire.OpHello, hello.Encode(nil))
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("netconn: handshake with %s: %w", addr, err)
	}
	if op == wire.OpError {
		// The server refused us with a structured goodbye (over the
		// connection cap, draining): surface its message so dialers
		// can tell an overload refusal from a protocol problem.
		nc.Close()
		if er, derr := wire.DecodeErrorReply(body); derr == nil {
			return nil, fmt.Errorf("netconn: %s refused connection: %s", addr, er.Message)
		}
		return nil, fmt.Errorf("netconn: %s refused connection", addr)
	}
	if op != wire.OpHelloReply {
		nc.Close()
		return nil, fmt.Errorf("netconn: handshake with %s: unexpected op %d", addr, op)
	}
	reply, err := wire.DecodeHelloReply(body)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("netconn: handshake with %s: %w", addr, err)
	}
	if reply.Version != wire.ProtocolVersion {
		nc.Close()
		return nil, fmt.Errorf("netconn: %s speaks protocol %d, want %d", addr, reply.Version, wire.ProtocolVersion)
	}
	if err := c.authenticate(addr, opts.AuthSecret, hello.Nonce, reply); err != nil {
		nc.Close()
		return nil, err
	}
	_ = nc.SetDeadline(time.Time{})
	c.hello = reply
	return c, nil
}

// authenticate finishes the client side of the mutual HMAC challenge:
// verify the server's proof over our nonce, answer its challenge, and
// require its final accept. A client with a secret refuses servers
// that do not demand authentication; a client without one refuses
// servers that do (instead of failing obscurely mid-challenge).
func (c *conn) authenticate(addr string, secret, clientNonce []byte, reply wire.HelloReply) error {
	if len(secret) == 0 {
		if reply.AuthRequired {
			return fmt.Errorf("netconn: %s requires authentication and no -auth-secret is configured", addr)
		}
		return nil
	}
	if !reply.AuthRequired {
		return fmt.Errorf("netconn: %s does not require authentication but a secret is configured (refusing to send writes to an unauthenticated peer)", addr)
	}
	if !wire.VerifyAuthProof(secret, wire.AuthRoleServer, clientNonce, reply.Proof) {
		return fmt.Errorf("netconn: %s failed the server authentication challenge (secret mismatch?)", addr)
	}
	proof := wire.AuthProof(secret, wire.AuthRoleClient, reply.Nonce)
	op, body, err := c.roundTrip(wire.OpAuth, wire.Auth{Proof: proof}.Encode(nil))
	if err != nil {
		return fmt.Errorf("netconn: auth with %s: %w", addr, err)
	}
	switch op {
	case wire.OpAuthReply:
		return nil
	case wire.OpError:
		if er, derr := wire.DecodeErrorReply(body); derr == nil {
			return fmt.Errorf("netconn: %s rejected authentication: %s", addr, er.Message)
		}
		return fmt.Errorf("netconn: %s rejected authentication", addr)
	default:
		return fmt.Errorf("netconn: auth with %s: unexpected op %d", addr, op)
	}
}

// exchange writes one request frame and hands each reply frame to
// next until next reports the exchange complete. When ctx is cancelled
// mid-exchange a watchdog poisons the socket deadline so the blocked
// read or write returns immediately; the conn is then broken (its
// stream state is unknown) and the caller must not reuse it.
func (c *conn) exchange(ctx context.Context, op byte, body []byte, next func(op byte, body []byte) bool) error {
	if ctx.Done() != nil {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			select {
			case <-ctx.Done():
				_ = c.nc.SetDeadline(time.Now())
			case <-stop:
			}
		}()
		defer func() {
			close(stop)
			<-done
			if ctx.Err() != nil {
				c.broken = true
			} else {
				_ = c.nc.SetDeadline(time.Time{})
			}
		}()
	}
	if err := wire.WriteFrame(c.bw, op, body); err != nil {
		c.broken = true
		return err
	}
	if err := c.bw.Flush(); err != nil {
		c.broken = true
		return err
	}
	for {
		rop, rbody, err := wire.ReadFrame(c.br)
		if err != nil {
			c.broken = true
			return err
		}
		if !next(rop, rbody) {
			return nil
		}
	}
}

// roundTrip writes one frame and reads one reply frame, with no
// cancellation watchdog.
func (c *conn) roundTrip(op byte, body []byte) (rop byte, rbody []byte, err error) {
	err = c.exchange(context.Background(), op, body, func(op byte, body []byte) bool {
		rop, rbody = op, body
		return false
	})
	return rop, rbody, err
}

// decodeReply interprets one reply frame: a `want`
// frame through decode, a structured error frame as the returned
// *wire.ErrorReply (the connection stays in sync). Anything else —
// another op, a body that does not parse — means the stream cannot be
// trusted: the conn is marked broken and the error returned.
func decodeReply[T any](c *conn, rop byte, rbody []byte, want byte, decode func([]byte) (T, error)) (reply T, er *wire.ErrorReply, err error) {
	switch rop {
	case want:
		reply, err = decode(rbody)
	case wire.OpError:
		var e wire.ErrorReply
		if e, err = wire.DecodeErrorReply(rbody); err == nil {
			return reply, &e, nil
		}
	default:
		err = fmt.Errorf("netconn: unexpected op %d", rop)
	}
	if err != nil {
		c.broken = true
	}
	return reply, nil, err
}

func (c *conn) close() { _ = c.nc.Close() }

// ErrFingerprintChanged marks a re-dial that reached a server whose
// content fingerprint differs from the one this pool first
// handshook: the peer restarted with different data (or a different
// process answers on that port). Retrying cannot help — the error is
// classified hard.
var ErrFingerprintChanged = errors.New("netconn: peer content fingerprint changed")

// pool manages connections to one address: LIFO idle stack, dial on
// empty, close on overflow or breakage. The first connection pins
// the peer's content fingerprint; every later re-dial must announce
// the identical one, so a daemon that restarts with different data
// is caught at the transport instead of polluting merged results.
type pool struct {
	addr string
	opts Options

	mu         sync.Mutex
	idle       []*conn
	closed     bool
	pinned     bool
	expectDocs uint64
	expectSum  uint64
}

func newPool(addr string, opts Options) *pool {
	return &pool{addr: addr, opts: opts}
}

// get checks out a connection: the most recently returned idle one
// (warmest buffers, least likely to have rotted), or a fresh dial
// verified against the pinned fingerprint.
func (p *pool) get() (*conn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("netconn: pool for %s is closed", p.addr)
	}
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	c, err := dial(p.addr, p.opts)
	if err != nil {
		return nil, err
	}
	if err := p.checkPin(c); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// checkPin verifies (or records, on first contact) the peer's
// announced content fingerprint. Write-path pools (Options.Mutable)
// skip pinning entirely: every acknowledged batch changes the
// fingerprint, so equality across dials is not an invariant there.
func (p *pool) checkPin(c *conn) error {
	if p.opts.Mutable {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.pinned {
		p.pinned = true
		p.expectDocs, p.expectSum = c.hello.Docs, c.hello.Checksum
		return nil
	}
	if c.hello.Docs != p.expectDocs || c.hello.Checksum != p.expectSum {
		return fmt.Errorf("%w: %s announces (%d docs, %016x), pinned (%d docs, %016x)",
			ErrFingerprintChanged, p.addr, c.hello.Docs, c.hello.Checksum, p.expectDocs, p.expectSum)
	}
	return nil
}

// put returns a connection after a request. Broken conns and overflow
// beyond maxIdlePerHost are closed. The first conn a pool sees pins
// the fingerprint (Connect and DialRouter seed pools this way).
func (p *pool) put(c *conn) {
	if c.broken {
		c.close()
		return
	}
	if p.checkPin(c) != nil {
		c.close()
		return
	}
	p.mu.Lock()
	if p.closed || len(p.idle) >= maxIdlePerHost {
		p.mu.Unlock()
		c.close()
		return
	}
	p.idle = append(p.idle, c)
	p.mu.Unlock()
}

// close closes every idle connection and refuses future checkouts.
func (p *pool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	for _, c := range idle {
		c.close()
	}
}

// dialReady dials + handshakes, retrying refused connections until
// opts.WaitReady elapses — the daemon-startup race absorber. Retries
// back off with the router's capped exponential + deterministic FNV
// jitter (sharding.Backoff), so a fleet of clients waiting on one
// restarting daemon does not thunder at a fixed cadence.
func dialReady(addr string, opts Options) (*conn, error) {
	deadline := time.Now().Add(opts.WaitReady)
	for attempt := 0; ; attempt++ {
		c, err := dial(addr, opts)
		if err == nil || time.Now().After(deadline) {
			return c, err
		}
		time.Sleep(dialBackoff(addr, attempt))
	}
}

// dialBackoff is the delay before redial attempt (0-based), jittered
// per (addr, attempt): deterministic so tests replay identically, yet
// different clients and attempts spread out.
func dialBackoff(addr string, attempt int) time.Duration {
	return sharding.Backoff(dialBackoffBase, dialBackoffMax, []byte(addr), attempt)
}

// Probe dials addr once (honouring opts.WaitReady), fetches the
// server's handshake identity and health stats, and hangs up. It is
// the readiness / ops primitive: scripts and the chaos orchestrator
// use it to wait for "ready", verify fingerprints after a restart,
// and read the shed/in-flight counters.
func Probe(addr string, opts Options) (wire.HelloReply, wire.StatsReply, error) {
	c, err := dialReady(addr, opts)
	if err != nil {
		return wire.HelloReply{}, wire.StatsReply{}, err
	}
	defer c.close()
	_ = c.nc.SetDeadline(time.Now().Add(dialTimeout))
	op, body, err := c.roundTrip(wire.OpStats, nil)
	if err != nil {
		return c.hello, wire.StatsReply{}, err
	}
	if op != wire.OpStatsReply {
		return c.hello, wire.StatsReply{}, fmt.Errorf("netconn: probe %s: unexpected op %d", addr, op)
	}
	stats, err := wire.DecodeStatsReply(body)
	if err != nil {
		return c.hello, wire.StatsReply{}, err
	}
	return c.hello, stats, nil
}
