package sharding

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/query"
)

// ShardConn is the router's fault boundary: every per-shard query
// execution goes through it. The production implementation is the
// in-process call the simulator always made (LocalConn); tests and
// benchmarks substitute FaultConn to inject the failure modes a real
// router↔shard link exhibits — added latency, transient errors,
// repeated errors, and hard unavailability.
type ShardConn interface {
	// Query executes the filter on the shard, honouring ctx: an
	// implementation must return promptly (with ctx.Err() or a wrapped
	// error) once the context is cancelled, and the executor it drives
	// must stop its scan cooperatively. opts is the pushed-down limit
	// and ordering: the shard stops (or top-k-bounds) its scan so no
	// more than opts.Limit documents cross this boundary. The scatter
	// passes the same *query.Prepared to every shard of a query, so an
	// in-process execution plans nothing the first shard already did; a
	// conn that serializes sends the filter inside it.
	//
	// This interface is also the ownership trust boundary: the
	// Result's slices must be owned by the caller (the executor
	// materializes them out of its pooled scratch before returning),
	// while the document bytes remain zero-copy views of the shard's
	// immutable storage — the single place a real deployment would
	// serialize.
	Query(ctx context.Context, shard *Shard, f query.Filter, cfg *query.Config, opts query.Opts) (*query.Result, error)
}

// LocalConn is the production ShardConn: the direct in-process
// execution on the shard's collection.
type LocalConn struct{}

// Query implements ShardConn.
func (LocalConn) Query(ctx context.Context, shard *Shard, f query.Filter, cfg *query.Config, opts query.Opts) (*query.Result, error) {
	return query.ExecuteOptsCtx(ctx, shard.Coll, f, cfg, opts)
}

// ErrShardDown marks a shard as hard-unavailable: not worth retrying.
var ErrShardDown = errors.New("shard unavailable")

// ErrBreakerOpen is returned without touching the shard while its
// circuit breaker is open.
var ErrBreakerOpen = errors.New("circuit breaker open")

// ShardError wraps a per-shard execution failure with the shard id
// and whether the failure is transient (worth retrying).
type ShardError struct {
	Shard     int
	Transient bool
	// RetryAfter is the server's backoff hint when the failure was an
	// admission-control shed (overload/draining): the router waits at
	// least this long before the next attempt. 0 means no hint.
	RetryAfter time.Duration
	Err        error
}

func (e *ShardError) Error() string {
	kind := "hard"
	if e.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("sharding: shard %d: %s failure: %v", e.Shard, kind, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// IsTransient reports whether the error is worth retrying: an
// explicitly transient ShardError, or a per-attempt deadline expiry
// (a straggler that may answer on the next try).
func IsTransient(err error) bool {
	var se *ShardError
	if errors.As(err, &se) {
		return se.Transient
	}
	return errors.Is(err, context.DeadlineExceeded)
}

// FaultSpec is the fault program for one shard.
type FaultSpec struct {
	// Latency is added before the shard executes (cancellable by the
	// attempt's context, so per-shard timeouts cut it short).
	Latency time.Duration
	// FailFirst makes the first N attempts fail with a transient
	// error, then the shard recovers — the retry path's happy case.
	FailFirst int
	// TransientRate injects a transient error on each attempt with
	// this probability, drawn from the per-shard seeded RNG.
	TransientRate float64
	// AlwaysFail makes every attempt fail transiently — the repeated
	// error that exhausts retries and trips the circuit breaker.
	AlwaysFail bool
	// Down makes the shard hard-unavailable: every attempt fails
	// immediately with a non-retryable error.
	Down bool
}

// FaultConn wraps a ShardConn and injects per-shard faults. It is
// deterministic for a given seed and per-shard attempt sequence:
// every shard has its own attempt counter and its own RNG (seeded
// with seed^shard), so concurrent queries against different shards do
// not perturb each other's fault schedules.
type FaultConn struct {
	inner ShardConn
	seed  int64

	mu     sync.Mutex
	shards map[int]*faultState
}

type faultState struct {
	spec     FaultSpec
	attempts int
	rng      *rand.Rand
}

// NewFaultConn wraps inner (nil means LocalConn) with no faults armed.
func NewFaultConn(inner ShardConn, seed int64) *FaultConn {
	if inner == nil {
		inner = LocalConn{}
	}
	return &FaultConn{inner: inner, seed: seed, shards: map[int]*faultState{}}
}

// SetFault installs (or replaces) the fault program for one shard and
// resets its attempt counter.
func (fc *FaultConn) SetFault(shard int, spec FaultSpec) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.shards[shard] = &faultState{
		spec: spec,
		rng:  rand.New(rand.NewSource(fc.seed ^ int64(shard)*0x9E3779B9)),
	}
}

// Attempts returns how many attempts the shard has seen.
func (fc *FaultConn) Attempts(shard int) int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if st := fc.shards[shard]; st != nil {
		return st.attempts
	}
	return 0
}

// Query implements ShardConn: consult the shard's fault program, then
// delegate to the inner connection.
func (fc *FaultConn) Query(ctx context.Context, shard *Shard, f query.Filter, cfg *query.Config, opts query.Opts) (*query.Result, error) {
	fc.mu.Lock()
	st := fc.shards[shard.ID]
	if st == nil {
		fc.mu.Unlock()
		return fc.inner.Query(ctx, shard, f, cfg, opts)
	}
	st.attempts++
	attempt := st.attempts
	spec := st.spec
	roll := 1.0
	if spec.TransientRate > 0 {
		roll = st.rng.Float64()
	}
	fc.mu.Unlock()

	if spec.Down {
		return nil, &ShardError{Shard: shard.ID, Err: ErrShardDown}
	}
	if spec.Latency > 0 {
		t := time.NewTimer(spec.Latency)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if spec.AlwaysFail || attempt <= spec.FailFirst || roll < spec.TransientRate {
		return nil, &ShardError{Shard: shard.ID, Transient: true,
			Err: fmt.Errorf("injected transient fault (attempt %d)", attempt)}
	}
	return fc.inner.Query(ctx, shard, f, cfg, opts)
}

// ParseFaultSpec parses a comma-separated per-shard fault list, the
// syntax the CLIs expose:
//
//	"1:down,3:slow=5ms,5:flaky=2,7:failing,9:lossy=0.3"
//
// per entry: <shard>:down | slow=<duration> | flaky=<failFirst> |
// failing | lossy=<rate>.
func ParseFaultSpec(s string) (map[int]FaultSpec, error) {
	out := map[int]FaultSpec{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		shardStr, kind, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("sharding: fault %q: want <shard>:<fault>", part)
		}
		sid, err := strconv.Atoi(shardStr)
		if err != nil || sid < 0 {
			return nil, fmt.Errorf("sharding: fault %q: bad shard id", part)
		}
		spec := out[sid]
		kind, arg, _ := strings.Cut(kind, "=")
		switch kind {
		case "down":
			spec.Down = true
		case "failing":
			spec.AlwaysFail = true
		case "slow":
			d, err := time.ParseDuration(arg)
			if err != nil {
				return nil, fmt.Errorf("sharding: fault %q: %v", part, err)
			}
			spec.Latency = d
		case "flaky":
			n, err := strconv.Atoi(arg)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("sharding: fault %q: bad attempt count", part)
			}
			spec.FailFirst = n
		case "lossy":
			r, err := strconv.ParseFloat(arg, 64)
			if err != nil || r < 0 || r > 1 {
				return nil, fmt.Errorf("sharding: fault %q: bad rate", part)
			}
			spec.TransientRate = r
		default:
			return nil, fmt.Errorf("sharding: fault %q: unknown kind %q", part, kind)
		}
		out[sid] = spec
	}
	return out, nil
}

// FormatFaultShards renders the shard ids of a fault map, ascending —
// report labelling.
func FormatFaultShards(m map[int]FaultSpec) string {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(id)
	}
	return strings.Join(parts, ",")
}
