package sharding

import (
	"context"
	"errors"
	"hash/fnv"
	"sync"
	"time"
)

// Policy selects the router's partial-result semantics when a shard
// stays failed after retries.
type Policy int

const (
	// FailFast aborts the whole query on the first unrecoverable
	// shard failure: outstanding executions are cancelled and the
	// query reports an error. The default — a missing shard silently
	// shrinking a result set is the one thing the paper's metrics can
	// never absorb.
	FailFast Policy = iota
	// AllowPartial degrades instead: the merged result carries every
	// healthy shard's documents, Partial=true, and the failed shard
	// ids, so the caller decides whether a short answer is usable.
	AllowPartial
)

func (p Policy) String() string {
	if p == AllowPartial {
		return "allow-partial"
	}
	return "fail-fast"
}

// Resilience configures the router's fault handling: what to do with
// a shard that stays failed, and how long one attempt may take. The
// zero value fails fast with no per-attempt deadline. Retries and the
// circuit breaker are always on, with fixed tuning (the constants
// below); a caller bounds a whole scatter-gather with its own context.
type Resilience struct {
	// Policy is FailFast (default) or AllowPartial.
	Policy Policy
	// ShardTimeout bounds one per-shard attempt; expiry counts as a
	// transient failure (the straggler may answer on retry). 0 = none.
	ShardTimeout time.Duration
}

// The router's fixed retry and breaker tuning.
const (
	// maxAttempts bounds attempts per shard, first try included; only
	// transient failures are retried. Three attempts absorb a transient
	// fault or a shed burst without letting a dead shard cost a query
	// more than three per-attempt timeouts.
	maxAttempts = 3
	// retryBackoff is the delay before the first retry; each further
	// retry doubles it, capped at maxBackoff (see Backoff for the
	// jitter).
	retryBackoff = time.Millisecond
	maxBackoff   = 50 * time.Millisecond
	// breakerThreshold trips a shard's breaker after this many
	// consecutive failures, or a >=50% failure rate over a window of the
	// same size; breakerCooldown is how long it then rejects before
	// admitting one half-open probe.
	breakerThreshold = 5
	breakerCooldown  = 250 * time.Millisecond
)

// Backoff is the capped exponential delay before retry `attempt`
// (0-based): base doubled per attempt up to maxDelay, scaled into
// [50%, 100%) by an FNV hash of key and the attempt number, so a
// schedule is reproducible run to run yet different keys (shards,
// addresses) never retry in lockstep. The router's shard retries and
// netconn's redials both use it, each with its own constants.
func Backoff(base, maxDelay time.Duration, key []byte, attempt int) time.Duration {
	d := base << uint(attempt)
	if d > maxDelay || d <= 0 {
		d = maxDelay
	}
	h := fnv.New32a()
	h.Write(key)
	h.Write([]byte{byte(attempt)})
	frac := 0.5 + float64(h.Sum32()%1024)/2048 // [0.5, 1.0)
	return time.Duration(float64(d) * frac)
}

// backoffDelay is the router's backoff before retry `retry` on the
// shard, jittered per (shard, retry).
func backoffDelay(shard, retry int) time.Duration {
	return Backoff(retryBackoff, maxBackoff, []byte{byte(shard), byte(shard >> 8)}, retry)
}

// retryDelay is backoffDelay, floored by the server's retry-after
// hint when the failed attempt was shed under admission control: an
// overloaded server knows better than the client's schedule how soon
// it wants to see the request again, but the jittered exponential
// still wins once it has grown past the hint (so repeated sheds keep
// de-synchronising).
func retryDelay(shard, retry int, err error) time.Duration {
	d := backoffDelay(shard, retry)
	if ra := retryAfter(err); ra > d {
		d = ra
	}
	return d
}

// retryAfter is the server's backoff hint carried by a shed (an
// admission-control overload or draining refusal); 0 for every other
// error.
func retryAfter(err error) time.Duration {
	var se *ShardError
	if errors.As(err, &se) {
		return se.RetryAfter
	}
	return 0
}

// sleepCtx sleeps d or until the context is cancelled; it reports
// whether the full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is one shard's circuit breaker: closed counts failures
// (consecutive and windowed rate) and trips open; open rejects until
// the cooldown elapses, then admits one half-open probe; the probe's
// success closes the breaker, its failure re-opens it.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu          sync.Mutex
	state       int
	consecutive int       // consecutive failures while closed
	windowTotal int       // outcomes observed in the current window
	windowFail  int       // failures among them
	openedAt    time.Time // when the breaker last tripped
	probing     bool      // a half-open probe is in flight
}

func newBreaker() *breaker {
	return &breaker{threshold: breakerThreshold, cooldown: breakerCooldown}
}

// allow reports whether an attempt may proceed.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open: one probe at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// onSuccess records a successful attempt.
func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive = 0
	b.probing = false
	if b.state != breakerClosed {
		b.state = breakerClosed
		b.windowTotal, b.windowFail = 0, 0
		return
	}
	b.note(false)
}

// onAbandon records an attempt that says nothing about the shard's
// health: one the query gave up on before the shard answered (a
// FailFast sibling abort, a caller cancel), or one the shard's server
// shed under admission control (backpressure from a busy but healthy
// server). No verdict, but a half-open probe's slot is handed back, so
// the next attempt probes instead of every later one being rejected.
func (b *breaker) onAbandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.probing = false
	}
}

// onFailure records a failed attempt.
func (b *breaker) onFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.trip()
		return
	}
	if b.state == breakerOpen {
		return
	}
	b.consecutive++
	b.note(true)
	if b.consecutive >= b.threshold ||
		(b.windowTotal >= b.threshold && b.windowFail*2 >= b.windowTotal) {
		b.trip()
	}
}

// note records one closed-state outcome in the sliding-rate window
// (caller holds the lock).
func (b *breaker) note(failed bool) {
	if b.windowTotal >= 2*b.threshold {
		// Halve the window so old outcomes age out.
		b.windowTotal /= 2
		b.windowFail /= 2
	}
	b.windowTotal++
	if failed {
		b.windowFail++
	}
}

// trip opens the breaker (caller holds the lock).
func (b *breaker) trip() {
	b.state = breakerOpen
	b.openedAt = time.Now()
	b.consecutive = 0
	b.windowTotal, b.windowFail = 0, 0
	b.probing = false
}

// snapshotState reports the breaker state for observability ("closed",
// "open", "half-open").
func (b *breaker) snapshotState() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}
