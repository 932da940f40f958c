package query

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/sfc"
)

// TestExecuteCtxCancelledBeforeStart: a context cancelled before the
// call must abort the execution and return the context's error, not a
// partial result.
func TestExecuteCtxCancelledBeforeStart(t *testing.T) {
	c := newCollWithIndexes(t, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ExecuteCtx(ctx, c, Cmp{Field: "hilbertIndex", Op: OpGTE, Value: int64(0)}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled execution returned a result")
	}
}

// TestExecuteCtxDeadlineStopsMidScan: an already-expired deadline
// stops a broadcast-sized scan cooperatively — the executor checks
// the context every cancelCheckWorks work units, so even a scan that
// would examine every document returns promptly with DeadlineExceeded.
func TestExecuteCtxDeadlineStopsMidScan(t *testing.T) {
	c := newCollWithIndexes(t, 5000)
	wide := Cmp{Field: "hilbertIndex", Op: OpGTE, Value: int64(0)}
	// Warm the plan cache so the cancellation exercises the cached-plan
	// path the router hits in steady state.
	if res := Execute(c, wide, nil); res.Stats.NReturned != 5000 {
		t.Fatalf("warmup returned %d docs", res.Stats.NReturned)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	res, err := ExecuteCtx(ctx, c, wide, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res != nil {
		t.Fatal("expired execution returned a result")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestExecuteCtxBackgroundIdentity: ExecuteCtx with a background
// context is exactly Execute — same docs, same counters — so the
// fault boundary costs the happy path nothing observable.
func TestExecuteCtxBackgroundIdentity(t *testing.T) {
	c := newCollWithIndexes(t, 2000)
	f := NewAnd(
		Cmp{Field: "hilbertIndex", Op: OpGTE, Value: int64(10000)},
		Cmp{Field: "hilbertIndex", Op: OpLTE, Value: int64(60000)},
	)
	base := Execute(c, f, nil)
	res, err := ExecuteCtx(context.Background(), c, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Docs, base.Docs) {
		t.Fatal("docs differ between Execute and ExecuteCtx")
	}
	if res.Stats.KeysExamined != base.Stats.KeysExamined ||
		res.Stats.DocsExamined != base.Stats.DocsExamined ||
		res.Stats.NReturned != base.Stats.NReturned ||
		res.Stats.IndexUsed != base.Stats.IndexUsed {
		t.Fatalf("stats differ: %+v vs %+v", res.Stats, base.Stats)
	}
}

// TestExecuteCtxCollScanCancel: cancellation also stops the COLLSCAN
// path (no usable index), which checks the context on the document
// counter instead of the key counter.
func TestExecuteCtxCollScanCancel(t *testing.T) {
	c := buildCollection(t, 3000) // no indexes: every plan is a collection scan
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ExecuteCtx(ctx, c, Cmp{Field: "hilbertIndex", Op: OpGTE, Value: int64(0)}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled collscan returned a result")
	}
}

// everyCellInterior is a containment that calls every hilbertIndex
// value interior: a scan under it answers a count from its keys alone
// and never fetches a document.
var everyCellInterior = &Containment{
	Leading: "hilbertIndex", Geo: "location",
	Interior: func(geo.Rect) (sfc.Box, bool) { return sfc.Box{X1: 1}, true },
	XY:       func(uint64) (uint32, uint32) { return 0, 0 },
}

// TestKeyOnlyScanCancels: a scan that answers every key from the index
// fetches no document, so the document counter never reaches a context
// check; it still checks the context every cancelCheckWorks keys and
// stops at the first check that reports cancelled, and ExecuteCtx
// returns the context's error rather than a completed count.
func TestKeyOnlyScanCancels(t *testing.T) {
	c := newCollWithIndexes(t, 5000)
	f := NewAnd(
		GeoWithin{Field: "location", Rect: geo.NewRect(0, 0, 90, 90)},
		Cmp{Field: "hilbertIndex", Op: OpGTE, Value: int64(0)},
		TimeRangeFilter("date", baseTime, baseTime.Add(60*24*time.Hour)),
	)
	p := Prepare(f)
	var plan *Plan
	for _, cand := range CandidatePlans(c, p) {
		if cand.Name() == "{hilbertIndex: 1, date: 1}" {
			plan = cand
		}
	}
	if plan == nil {
		t.Fatal("no plan through the {hilbertIndex, date} index")
	}
	count := Opts{Agg: AggSpec{Kind: AggCount}}
	for checks := 1; checks <= 3; checks++ {
		s := getScratch()
		e := exec{ctx: &countdownCtx{Context: context.Background(), left: checks - 1}, coll: c, p: plan, collect: true, opts: count, s: s}
		e.contain(&Config{Contain: everyCellInterior}, p)
		if !e.in.ok || !e.keyOnly {
			t.Fatal("the count is not answered from the keys")
		}
		completed := e.run()
		if completed || !errors.Is(e.ctxErr, context.Canceled) {
			t.Fatalf("check %d: completed=%v err=%v, want a cancelled scan", checks, completed, e.ctxErr)
		}
		if e.keyOnlyN != checks*cancelCheckWorks || e.stats.DocsExamined != 0 {
			t.Fatalf("check %d: stopped after %d keys and %d documents, want %d keys and none",
				checks, e.keyOnlyN, e.stats.DocsExamined, checks*cancelCheckWorks)
		}
		putScratch(s)
		if s.batch.n != 0 {
			t.Fatalf("the cancelled scan left %d entries queued", s.batch.n)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := ExecuteOptsCtx(ctx, c, f, &Config{Contain: everyCellInterior}, count); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancelled key-only count: res=%v err=%v, want context.Canceled", res, err)
	}
	res := ExecuteOpts(c, f, &Config{Contain: everyCellInterior}, count)
	if res.Stats.DocsExamined != 0 || res.Agg.Count != 5000 {
		t.Fatalf("uncancelled key-only count: %d, %d documents examined, want 5000 and none",
			res.Agg.Count, res.Stats.DocsExamined)
	}
}

// TestInteriorSkipNeverReachesDeletes: under a containment that lies —
// it calls every cell interior — a find keeps documents outside the
// rectangle unrefined, which shows the skip ran, while MatchingRecords,
// the lookup behind deletes, refines every document and returns only
// the true matches.
func TestInteriorSkipNeverReachesDeletes(t *testing.T) {
	c := buildCollection(t, 2000)
	mustIndex(t, c, index.Definition{Name: "hd", Fields: []index.Field{
		{Name: "hilbertIndex", Kind: index.Ascending},
		{Name: "date", Kind: index.Ascending},
	}})
	f := NewAnd(
		GeoWithin{Field: "location", Rect: geo.NewRect(23.2, 37.2, 23.5, 37.5)},
		Cmp{Field: "hilbertIndex", Op: OpGTE, Value: int64(0)},
		TimeRangeFilter("date", baseTime, baseTime.Add(10*24*time.Hour)),
	)
	cfg := &Config{Contain: everyCellInterior}
	truth := ExecuteOpts(c, f, nil, Opts{})
	lied := ExecuteOpts(c, f, cfg, Opts{})
	if lied.Stats.NReturned <= truth.Stats.NReturned || lied.Stats.DocsRefined != 0 {
		t.Fatalf("a find under the lying containment returned %d documents (%d refined), the truth %d: the skip did not run",
			lied.Stats.NReturned, lied.Stats.DocsRefined, truth.Stats.NReturned)
	}
	ids := MatchingRecords(c, f, cfg)
	if len(ids) != truth.Stats.NReturned {
		t.Fatalf("MatchingRecords under the lying containment found %d records, the truth is %d", len(ids), truth.Stats.NReturned)
	}
	for _, id := range ids {
		raw, _ := c.Store().FetchRaw(id)
		doc := bson.Raw(raw)
		if !f.Matches(&doc) {
			t.Fatalf("MatchingRecords returned record %d, which does not match", id)
		}
	}
}
