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

// Resilience configures the router's fault handling. The zero value
// (filled by withDefaults) retries transient failures and fails fast;
// with the production LocalConn and no timeouts the whole machinery
// reduces to nil checks on the happy path.
type Resilience struct {
	// Policy is FailFast (default) or AllowPartial.
	Policy Policy
	// MaxAttempts bounds attempts per shard, first try included
	// (default 3; 1 disables retries). Only transient failures are
	// retried.
	MaxAttempts int
	// RetryBackoff is the base delay before the first retry; each
	// further retry doubles it, capped at MaxBackoff. The actual
	// delay applies a deterministic jitter in [50%, 100%] derived
	// from (shard, attempt), so retries across shards de-synchronise
	// identically on every run. Defaults 1ms / 50ms.
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// ShardTimeout bounds one per-shard attempt; expiry counts as a
	// transient failure (the straggler may answer on retry). 0 = none.
	ShardTimeout time.Duration
	// QueryTimeout bounds the whole scatter-gather. 0 = none.
	QueryTimeout time.Duration
	// HedgeAfter launches one duplicate attempt against a shard whose
	// attempt has not answered within this delay, keeping whichever
	// response arrives first. 0 disables hedging.
	HedgeAfter time.Duration
	// BreakerThreshold trips a shard's circuit breaker after this
	// many consecutive failures, or after a ≥50% failure rate over a
	// window of the same size (default 5; negative disables the
	// breaker).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects before
	// letting one half-open probe through (default 250ms).
	BreakerCooldown time.Duration
}

// Defaults for Resilience.
const (
	DefaultMaxAttempts      = 3
	DefaultRetryBackoff     = time.Millisecond
	DefaultMaxBackoff       = 50 * time.Millisecond
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 250 * time.Millisecond
)

func (r Resilience) withDefaults() Resilience {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = DefaultMaxAttempts
	}
	if r.RetryBackoff <= 0 {
		r.RetryBackoff = DefaultRetryBackoff
	}
	if r.MaxBackoff <= 0 {
		r.MaxBackoff = DefaultMaxBackoff
	}
	if r.BreakerThreshold == 0 {
		r.BreakerThreshold = DefaultBreakerThreshold
	}
	if r.BreakerCooldown <= 0 {
		r.BreakerCooldown = DefaultBreakerCooldown
	}
	return r
}

// backoffDelay is the capped exponential backoff before retry
// `retry` (0-based) on the shard, with deterministic jitter: the
// delay is scaled into [50%, 100%] by an FNV hash of (shard, retry),
// so the schedule is reproducible run to run yet different shards
// never thunder in lockstep.
func backoffDelay(r Resilience, shard, retry int) time.Duration {
	d := r.RetryBackoff << uint(retry)
	if d > r.MaxBackoff || d <= 0 {
		d = r.MaxBackoff
	}
	h := fnv.New32a()
	h.Write([]byte{byte(shard), byte(shard >> 8), byte(retry)})
	frac := 0.5 + float64(h.Sum32()%1024)/2048 // [0.5, 1.0)
	return time.Duration(float64(d) * frac)
}

// retryDelay is backoffDelay, floored by the server's retry-after
// hint when the failed attempt was shed under admission control: an
// overloaded server knows better than the client's schedule how soon
// it wants to see the request again, but the jittered exponential
// still wins once it has grown past the hint (so repeated sheds keep
// de-synchronising).
func retryDelay(r Resilience, shard, retry int, err error) time.Duration {
	d := backoffDelay(r, shard, retry)
	var se *ShardError
	if errors.As(err, &se) && se.RetryAfter > d {
		d = se.RetryAfter
	}
	return d
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

func newBreaker(r Resilience) *breaker {
	if r.BreakerThreshold < 0 {
		return nil
	}
	return &breaker{threshold: r.BreakerThreshold, cooldown: r.BreakerCooldown}
}

// allow reports whether an attempt may proceed.
func (b *breaker) allow() bool {
	if b == nil {
		return true
	}
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
	if b == nil {
		return
	}
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

// onAbandon records an attempt the query gave up on before the shard
// answered (a FailFast sibling abort, a caller cancel): no verdict on
// the shard, but a half-open probe's slot is handed back, so the next
// attempt probes instead of every later one being rejected.
func (b *breaker) onAbandon() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.probing = false
	}
}

// onFailure records a failed attempt.
func (b *breaker) onFailure() {
	if b == nil {
		return
	}
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
	if b == nil {
		return "disabled"
	}
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
