package sharding

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/query"
)

// testResilience is the fast-retry configuration the fault tests run
// under: real policy machinery, microsecond backoffs.
func testResilience(p Policy) Resilience {
	return Resilience{
		Policy:       p,
		MaxAttempts:  3,
		RetryBackoff: 200 * time.Microsecond,
		MaxBackoff:   2 * time.Millisecond,
	}
}

// shardIDSet executes the filter directly on the given shards and
// returns the sorted _id multiset — the reference for what a partial
// merge over exactly those shards must contain.
func shardIDSet(c *Cluster, f query.Filter, shards []int, exclude int) []string {
	ids := []string{}
	for _, sid := range shards {
		if sid == exclude {
			continue
		}
		res := query.Execute(c.Shards()[sid].Coll, f, nil)
		for _, d := range res.Docs {
			ids = append(ids, fmt.Sprintf("%v", d.Get("_id")))
		}
	}
	slices.Sort(ids)
	return ids
}

// TestFaultMatrix is the acceptance matrix: every fault type × both
// policies × a targeted and a broadcast query × sequential and
// parallel pools. The invariant: the merged result is either
// complete-and-identical to the healthy baseline, or correctly marked
// partial with the failed shard's contribution excluded — never
// silently short.
func TestFaultMatrix(t *testing.T) {
	c, _ := loadCluster(t, 3000, hilbertDateKey(), smallOpts())

	queries := []struct {
		name string
		f    query.Filter
	}{
		{"targeted", query.NewAnd(
			query.Cmp{Field: "hilbertIndex", Op: query.OpGTE, Value: int64(100)},
			query.Cmp{Field: "hilbertIndex", Op: query.OpLTE, Value: int64(3500)},
		)},
		{"broadcast", query.GeoWithin{Field: "location", Rect: geo.NewRect(23.0, 37.0, 23.8, 37.8)}},
	}
	faults := []struct {
		name        string
		spec        FaultSpec
		recoverable bool
	}{
		{"latency", FaultSpec{Latency: 3 * time.Millisecond}, true},
		{"transient", FaultSpec{FailFirst: 2}, true}, // recovers within MaxAttempts
		{"repeated", FaultSpec{AlwaysFail: true}, false},
		{"down", FaultSpec{Down: true}, false},
	}
	policies := []Policy{FailFast, AllowPartial}

	// Healthy baselines, default configuration.
	c.SetParallel(1)
	baseline := map[string]*RoutedResult{}
	for _, q := range queries {
		baseline[q.name] = c.Query(q.f)
		if baseline[q.name].ShardsTargeted < 2 {
			t.Fatalf("%s: needs >=2 targets to fault one, got %d", q.name, baseline[q.name].ShardsTargeted)
		}
	}

	for _, width := range []int{1, 4} {
		c.SetParallel(width)
		for _, fault := range faults {
			for _, policy := range policies {
				for _, q := range queries {
					name := fmt.Sprintf("w%d/%s/%s/%s", width, fault.name, policy, q.name)
					t.Run(name, func(t *testing.T) {
						base := baseline[q.name]
						sid := base.TargetedShards[0]
						fc := NewFaultConn(nil, 42)
						fc.SetFault(sid, fault.spec)
						c.SetResilience(testResilience(policy))
						c.SetConn(fc)
						defer func() {
							c.SetConn(nil)
							c.SetResilience(Resilience{})
						}()

						res, err := c.QueryCtx(context.Background(), q.f)
						if fault.recoverable {
							if err != nil || res.Partial || len(res.FailedShards) != 0 {
								t.Fatalf("recoverable fault degraded the result: err=%v partial=%v failed=%v",
									err, res.Partial, res.FailedShards)
							}
							if !reflect.DeepEqual(res.Docs, base.Docs) {
								t.Fatal("recovered result differs from healthy baseline")
							}
							if res.TotalReturned != base.TotalReturned ||
								res.MaxKeysExamined != base.MaxKeysExamined ||
								!reflect.DeepEqual(res.TargetedShards, base.TargetedShards) {
								t.Fatal("recovered metrics differ from healthy baseline")
							}
							return
						}
						// Unrecoverable: the outcome depends on policy,
						// and must never be a silently short merge.
						if !res.Partial {
							t.Fatal("unrecoverable fault left Partial unset")
						}
						found := false
						for _, fs := range res.FailedShards {
							if fs == sid {
								found = true
							}
						}
						if !found {
							t.Fatalf("failed shard %d not in FailedShards %v", sid, res.FailedShards)
						}
						switch policy {
						case FailFast:
							if err == nil || res.Err == nil {
								t.Fatal("FailFast returned no error")
							}
							if res.Docs != nil || res.TotalReturned != 0 {
								t.Fatalf("FailFast leaked a short merge: %d docs", len(res.Docs))
							}
						case AllowPartial:
							if err != nil {
								t.Fatalf("AllowPartial returned error: %v", err)
							}
							if !reflect.DeepEqual(res.FailedShards, []int{sid}) {
								t.Fatalf("FailedShards = %v, want [%d]", res.FailedShards, sid)
							}
							want := shardIDSet(c, q.f, base.TargetedShards, sid)
							if got := idSetOf(res); !reflect.DeepEqual(got, want) {
								t.Fatalf("partial merge wrong: %d docs, want %d (healthy shards only)",
									len(got), len(want))
							}
						}
					})
				}
			}
		}
	}
}

// TestRetryRecoversAndCounts: a shard that fails its first two
// attempts recovers transparently; the result is identical to the
// healthy run and the retry accounting is exact.
func TestRetryRecoversAndCounts(t *testing.T) {
	c, _ := loadCluster(t, 2000, hilbertDateKey(), smallOpts())
	c.SetParallel(1)
	f := query.GeoWithin{Field: "location", Rect: geo.NewRect(23.0, 37.0, 24.0, 38.0)}
	base := c.Query(f)
	sid := base.TargetedShards[0]

	fc := NewFaultConn(nil, 7)
	fc.SetFault(sid, FaultSpec{FailFirst: 2})
	c.SetResilience(testResilience(AllowPartial))
	c.SetConn(fc)
	defer func() { c.SetConn(nil); c.SetResilience(Resilience{}) }()

	res, err := c.QueryCtx(context.Background(), f)
	if err != nil || res.Partial {
		t.Fatalf("retry did not recover: err=%v partial=%v", err, res.Partial)
	}
	if !reflect.DeepEqual(res.Docs, base.Docs) {
		t.Fatal("recovered docs differ from baseline")
	}
	if res.RetriesPerShard == nil {
		t.Fatal("RetriesPerShard not recorded")
	}
	for i, target := range res.TargetedShards {
		want := 0
		if target == sid {
			want = 2
		}
		if res.RetriesPerShard[i] != want {
			t.Fatalf("RetriesPerShard[%d] = %d, want %d", i, res.RetriesPerShard[i], want)
		}
	}
	if got := fc.Attempts(sid); got != 3 {
		t.Fatalf("shard saw %d attempts, want 3", got)
	}
	// A healthy re-run reports no retries at all.
	res2 := c.Query(f)
	if res2.RetriesPerShard != nil || res2.Hedged != 0 {
		t.Fatalf("healthy run carries fault counters: %+v", res2)
	}
}

// TestDownShardReturnsWithinDeadline is the acceptance scenario: one
// hard-down shard, a configured query deadline, AllowPartial — the
// query must come back well within the deadline, marked partial, with
// the down shard listed.
func TestDownShardReturnsWithinDeadline(t *testing.T) {
	c, _ := loadCluster(t, 2000, hilbertDateKey(), smallOpts())
	f := query.GeoWithin{Field: "location", Rect: geo.NewRect(23.0, 37.0, 24.0, 38.0)}
	base := c.Query(f)
	sid := base.TargetedShards[len(base.TargetedShards)-1]

	fc := NewFaultConn(nil, 1)
	fc.SetFault(sid, FaultSpec{Down: true})
	r := testResilience(AllowPartial)
	r.QueryTimeout = 5 * time.Second
	c.SetResilience(r)
	c.SetConn(fc)
	defer func() { c.SetConn(nil); c.SetResilience(Resilience{}) }()

	start := time.Now()
	res, err := c.QueryCtx(context.Background(), f)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("AllowPartial errored: %v", err)
	}
	if elapsed >= r.QueryTimeout {
		t.Fatalf("query took %v, deadline %v", elapsed, r.QueryTimeout)
	}
	if !res.Partial || !reflect.DeepEqual(res.FailedShards, []int{sid}) {
		t.Fatalf("partial=%v failed=%v, want partial with shard %d", res.Partial, res.FailedShards, sid)
	}
	want := shardIDSet(c, f, base.TargetedShards, sid)
	if got := idSetOf(res); !reflect.DeepEqual(got, want) {
		t.Fatal("partial merge does not equal the healthy shards' union")
	}
}

// TestShardTimeoutCutsStragglers: a shard slower than the per-attempt
// deadline times out (transiently), exhausts its retries, and the
// query still answers quickly under AllowPartial.
func TestShardTimeoutCutsStragglers(t *testing.T) {
	c, _ := loadCluster(t, 1000, hilbertDateKey(), smallOpts())
	f := query.GeoWithin{Field: "location", Rect: geo.NewRect(23.0, 37.0, 24.0, 38.0)}
	base := c.Query(f)
	sid := base.TargetedShards[0]

	fc := NewFaultConn(nil, 1)
	fc.SetFault(sid, FaultSpec{Latency: 10 * time.Second})
	r := testResilience(AllowPartial)
	r.MaxAttempts = 2
	r.ShardTimeout = 25 * time.Millisecond
	c.SetResilience(r)
	c.SetConn(fc)
	defer func() { c.SetConn(nil); c.SetResilience(Resilience{}) }()

	start := time.Now()
	res, err := c.QueryCtx(context.Background(), f)
	elapsed := time.Since(start)
	if err != nil || !res.Partial {
		t.Fatalf("err=%v partial=%v", err, res.Partial)
	}
	if !reflect.DeepEqual(res.FailedShards, []int{sid}) {
		t.Fatalf("FailedShards = %v", res.FailedShards)
	}
	// Two attempts × 25ms + backoff: anything near the injected 10s
	// means cancellation did not propagate.
	if elapsed > 2*time.Second {
		t.Fatalf("straggler held the query for %v", elapsed)
	}
	if res.RetriesPerShard == nil {
		t.Fatal("timeout retries not recorded")
	}
}

// TestHedgedRequestBeatsStraggler: the first attempt straggles, the
// hedge launched after HedgeAfter runs at full speed and wins; the
// result is complete and the hedge is counted.
func TestHedgedRequestBeatsStraggler(t *testing.T) {
	c, _ := loadCluster(t, 2000, hilbertDateKey(), smallOpts())
	f := query.GeoWithin{Field: "location", Rect: geo.NewRect(23.0, 37.0, 24.0, 38.0)}
	base := c.Query(f)
	sid := base.TargetedShards[0]

	straggle := time.Second
	fc := NewFaultConn(nil, 1)
	fc.SetFault(sid, FaultSpec{Latency: straggle, LatencyAttempts: 1})
	r := testResilience(FailFast)
	r.HedgeAfter = 20 * time.Millisecond
	c.SetResilience(r)
	c.SetConn(fc)
	defer func() { c.SetConn(nil); c.SetResilience(Resilience{}) }()

	start := time.Now()
	res, err := c.QueryCtx(context.Background(), f)
	elapsed := time.Since(start)
	if err != nil || res.Partial {
		t.Fatalf("hedged query failed: err=%v partial=%v", err, res.Partial)
	}
	if res.Hedged < 1 {
		t.Fatal("no hedge launched for the straggler")
	}
	if elapsed >= straggle {
		t.Fatalf("hedge did not win: %v >= %v straggle", elapsed, straggle)
	}
	if !reflect.DeepEqual(res.Docs, base.Docs) {
		t.Fatal("hedged result differs from baseline")
	}
}

// TestCancelledContextAbortsScatter: an already-cancelled caller
// context must abort immediately with no shard answering.
func TestCancelledContextAbortsScatter(t *testing.T) {
	c, _ := loadCluster(t, 1000, hilbertDateKey(), smallOpts())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := c.QueryCtx(ctx, query.GeoWithin{Field: "location", Rect: geo.NewRect(23, 37, 24, 38)})
	if err == nil {
		t.Fatal("cancelled context produced no error")
	}
	if !res.Partial || len(res.FailedShards) != res.ShardsTargeted {
		t.Fatalf("cancelled scatter: partial=%v failed=%v of %d", res.Partial, res.FailedShards, res.ShardsTargeted)
	}
	if len(res.Docs) != 0 {
		t.Fatal("cancelled query returned docs")
	}
}

// TestBreakerStateMachine drives one breaker through
// closed → open → half-open → closed and the re-open path.
func TestBreakerStateMachine(t *testing.T) {
	b := newBreaker(Resilience{BreakerThreshold: 3, BreakerCooldown: 20 * time.Millisecond}.withDefaults())
	if !b.allow() || b.snapshotState() != "closed" {
		t.Fatal("fresh breaker not closed")
	}
	for i := 0; i < 3; i++ {
		b.onFailure()
	}
	if b.snapshotState() != "open" {
		t.Fatalf("state after %d failures = %s", 3, b.snapshotState())
	}
	if b.allow() {
		t.Fatal("open breaker admitted an attempt")
	}
	time.Sleep(25 * time.Millisecond)
	if !b.allow() {
		t.Fatal("cooled-down breaker refused the half-open probe")
	}
	if b.snapshotState() != "half-open" {
		t.Fatalf("state after cooldown = %s", b.snapshotState())
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.onSuccess()
	if b.snapshotState() != "closed" || !b.allow() {
		t.Fatal("successful probe did not close the breaker")
	}
	// Failure in half-open re-opens.
	for i := 0; i < 3; i++ {
		b.onFailure()
	}
	time.Sleep(25 * time.Millisecond)
	if !b.allow() {
		t.Fatal("no probe after second cooldown")
	}
	b.onFailure()
	if b.snapshotState() != "open" {
		t.Fatalf("failed probe left state %s", b.snapshotState())
	}
	// Failure-rate trip: every other attempt fails.
	rate := newBreaker(Resilience{BreakerThreshold: 4, BreakerCooldown: time.Minute}.withDefaults())
	for i := 0; i < 8 && rate.snapshotState() == "closed"; i++ {
		if i%2 == 0 {
			rate.onFailure()
		} else {
			rate.onSuccess()
		}
	}
	if rate.snapshotState() != "open" {
		t.Fatal("50% failure rate never tripped the breaker")
	}
	// Disabled breaker is a no-op.
	var off *breaker
	if !off.allow() || off.snapshotState() != "disabled" {
		t.Fatal("nil breaker must always allow")
	}
	off.onFailure()
	off.onSuccess()
}

// TestBreakerStopsHammeringFailedShard: once a persistently failing
// shard trips its breaker, later queries fail it immediately instead
// of burning retries against it.
func TestBreakerStopsHammeringFailedShard(t *testing.T) {
	c, _ := loadCluster(t, 1000, hilbertDateKey(), smallOpts())
	c.SetParallel(1)
	f := query.GeoWithin{Field: "location", Rect: geo.NewRect(23, 37, 24, 38)}
	sid := c.Query(f).TargetedShards[0]

	fc := NewFaultConn(nil, 3)
	fc.SetFault(sid, FaultSpec{AlwaysFail: true})
	r := testResilience(AllowPartial)
	r.MaxAttempts = 2
	r.BreakerThreshold = 3
	r.BreakerCooldown = time.Minute // stays open for the whole test
	c.SetResilience(r)
	c.SetConn(fc)
	defer func() { c.SetConn(nil); c.SetResilience(Resilience{}) }()

	// Trip the breaker: 2 failed attempts per query.
	for i := 0; i < 2; i++ {
		res, err := c.QueryCtx(context.Background(), f)
		if err != nil || !res.Partial {
			t.Fatalf("query %d: err=%v partial=%v", i, err, res.Partial)
		}
	}
	if got := c.BreakerStates()[sid]; got != "open" {
		t.Fatalf("breaker state = %s, want open", got)
	}
	before := fc.Attempts(sid)
	for i := 0; i < 5; i++ {
		res, _ := c.QueryCtx(context.Background(), f)
		if !res.Partial {
			t.Fatal("open breaker produced a complete result")
		}
		found := false
		for _, fs := range res.FailedShards {
			if fs == sid {
				found = true
			}
		}
		if !found {
			t.Fatalf("open-breaker query missing shard %d in FailedShards", sid)
		}
	}
	if after := fc.Attempts(sid); after != before {
		t.Fatalf("open breaker let %d attempts through", after-before)
	}
}

// TestBreakerProbeReleasedOnAbort: a half-open probe whose attempt is
// cancelled by a FailFast sibling abort gives no verdict on its shard,
// but it must hand the probe slot back — otherwise the breaker stays
// half-open with a probe "in flight" forever and rejects every later
// attempt on a healthy shard.
func TestBreakerProbeReleasedOnAbort(t *testing.T) {
	c, _ := loadCluster(t, 1000, hilbertDateKey(), smallOpts())
	f := query.GeoWithin{Field: "location", Rect: geo.NewRect(23, 37, 24, 38)}
	targets := c.Query(f).TargetedShards
	if len(targets) < 2 {
		t.Fatalf("need two targeted shards, got %v", targets)
	}
	a, b := targets[0], targets[1]
	c.SetParallel(len(targets))

	const cooldown = 30 * time.Millisecond
	r := testResilience(FailFast)
	r.MaxAttempts = 1
	r.BreakerThreshold = 1
	r.BreakerCooldown = cooldown
	c.SetResilience(r)
	defer func() { c.SetConn(nil); c.SetResilience(Resilience{}) }()

	// Trip A's breaker.
	fc := NewFaultConn(nil, 1)
	fc.SetFault(a, FaultSpec{AlwaysFail: true})
	c.SetConn(fc)
	if _, err := c.QueryCtx(context.Background(), f); err == nil {
		t.Fatal("failing shard produced no error")
	}
	if got := c.BreakerStates()[a]; got != "open" {
		t.Fatalf("breaker state = %s, want open", got)
	}

	// After the cooldown A's probe straggles while B fails: the FailFast
	// abort cancels the probe mid-attempt.
	time.Sleep(cooldown + 10*time.Millisecond)
	fc = NewFaultConn(nil, 1)
	fc.SetFault(a, FaultSpec{Latency: 2 * time.Second})
	fc.SetFault(b, FaultSpec{Latency: 50 * time.Millisecond, AlwaysFail: true})
	c.SetConn(fc)
	if _, err := c.QueryCtx(context.Background(), f); err == nil {
		t.Fatal("failing sibling produced no error")
	}

	// Faults cleared and B's own breaker cooled down: the cluster is
	// healthy again, so every query must complete.
	c.SetConn(nil)
	time.Sleep(cooldown + 10*time.Millisecond)
	for i := 0; i < 3; i++ {
		res, err := c.QueryCtx(context.Background(), f)
		if err != nil || res.Partial {
			t.Fatalf("query %d after recovery: err=%v partial=%v (breakers %v)", i, err, res.Partial, c.BreakerStates())
		}
	}
	if got := c.BreakerStates()[a]; got != "closed" {
		t.Fatalf("breaker state after recovery = %s, want closed", got)
	}
}

// TestFaultConnDeterministic: two clusters with identically seeded
// rate-based FaultConns observe identical fault schedules.
func TestFaultConnDeterministic(t *testing.T) {
	run := func() []bool {
		c, _ := loadCluster(t, 800, hilbertDateKey(), smallOpts())
		c.SetParallel(1)
		f := query.GeoWithin{Field: "location", Rect: geo.NewRect(23, 37, 24, 38)}
		sid := c.Query(f).TargetedShards[0]
		fc := NewFaultConn(nil, 99)
		fc.SetFault(sid, FaultSpec{TransientRate: 0.5})
		r := testResilience(AllowPartial)
		r.BreakerThreshold = -1 // isolate the RNG schedule from breaker state
		c.SetResilience(r)
		c.SetConn(fc)
		var partials []bool
		for i := 0; i < 12; i++ {
			res, _ := c.QueryCtx(context.Background(), f)
			partials = append(partials, res.Partial)
		}
		return partials
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
}

// TestZeroFaultsByteIdentical: a FaultConn with no faults armed plus
// the full resilience machinery produces exactly the plain router's
// output (the acceptance identity, here checked at Parallel=1).
func TestZeroFaultsByteIdentical(t *testing.T) {
	c, _ := loadCluster(t, 2000, hilbertDateKey(), smallOpts())
	c.SetParallel(1)
	for _, f := range stressFilters() {
		base := c.Query(f)
		c.SetConn(NewFaultConn(nil, 5))
		c.SetResilience(Resilience{Policy: AllowPartial, HedgeAfter: 50 * time.Millisecond})
		got, err := c.QueryCtx(context.Background(), f)
		c.SetConn(nil)
		c.SetResilience(Resilience{})
		if err != nil {
			t.Fatalf("healthy query errored: %v", err)
		}
		if !reflect.DeepEqual(got.Docs, base.Docs) {
			t.Fatalf("docs differ for %v", f)
		}
		if got.Partial || got.Err != nil || got.FailedShards != nil ||
			got.RetriesPerShard != nil || got.Hedged != 0 {
			t.Fatalf("healthy query carries fault state: %+v", got)
		}
		if got.TotalReturned != base.TotalReturned ||
			got.MaxKeysExamined != base.MaxKeysExamined ||
			got.MaxDocsExamined != base.MaxDocsExamined ||
			!reflect.DeepEqual(got.TargetedShards, base.TargetedShards) {
			t.Fatalf("metrics differ for %v", f)
		}
	}
}

// TestQueryBatchPartialSemantics: batch entries degrade independently
// under AllowPartial — only the entries routed to the faulty shard go
// partial — and FailFast surfaces a batch-level error.
func TestQueryBatchPartialSemantics(t *testing.T) {
	c, _ := loadCluster(t, 2000, hilbertDateKey(), smallOpts())
	c.SetParallel(2)
	fs := stressFilters()
	base := make([]*RoutedResult, len(fs))
	for i, f := range fs {
		base[i] = c.Query(f)
	}
	// Fault a shard that at least one entry targets.
	sid := -1
	for _, b := range base {
		if b.Broadcast {
			sid = b.TargetedShards[0]
		}
	}
	if sid < 0 {
		t.Fatal("no broadcast entry in the stress filters")
	}

	fc := NewFaultConn(nil, 11)
	fc.SetFault(sid, FaultSpec{Down: true})
	c.SetResilience(testResilience(AllowPartial))
	c.SetConn(fc)
	defer func() { c.SetConn(nil); c.SetResilience(Resilience{}) }()

	results, err := c.QueryBatchCtx(context.Background(), fs, nil)
	if err != nil {
		t.Fatalf("AllowPartial batch errored: %v", err)
	}
	for i, res := range results {
		targeted := false
		for _, s := range base[i].TargetedShards {
			if s == sid {
				targeted = true
			}
		}
		if targeted {
			if !res.Partial || len(res.FailedShards) == 0 {
				t.Fatalf("entry %d targeted the down shard but is not partial", i)
			}
			want := shardIDSet(c, fs[i], base[i].TargetedShards, sid)
			if got := idSetOf(res); !reflect.DeepEqual(got, want) {
				t.Fatalf("entry %d: partial merge wrong", i)
			}
		} else {
			if res.Partial || !reflect.DeepEqual(res.Docs, base[i].Docs) {
				t.Fatalf("entry %d avoided the down shard but degraded", i)
			}
		}
	}

	// FailFast: the batch reports the failure.
	c.SetResilience(testResilience(FailFast))
	_, err = c.QueryBatchCtx(context.Background(), fs, nil)
	if err == nil {
		t.Fatal("FailFast batch with a down shard returned no error")
	}
	if !errors.Is(err, ErrShardDown) && !errors.Is(err, context.Canceled) {
		var se *ShardError
		if !errors.As(err, &se) {
			t.Fatalf("unexpected batch error: %v", err)
		}
	}
}
