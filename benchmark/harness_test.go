package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 99}, {100, 100}, {0.5, 1}, {99.9, 100}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of an empty sample = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("percentile of one value = %d, want 7", got)
	}
}

func TestTailNeedsSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n, beyond int
		p         float64
		want      bool
	}{
		{999, 10, 99, false},
		{1000, 10, 99, true},
		{1999, 20, 99, false},
		{2000, 20, 99, true},
		{2000, 20, 99.9, false},
		{20, 10, 50, true},
	} {
		if got := supports(c.n, c.p, c.beyond); got != c.want {
			t.Errorf("supports(n=%d, p%v, beyond=%d) = %v, want %v", c.n, c.p, c.beyond, got, c.want)
		}
	}
}

// TestSliceMediansIgnoreASlowSpell: a stall covering a minority of
// the window's slices moves the whole-window figures and leaves the
// slice medians where they were.
func TestSliceMediansIgnoreASlowSpell(t *testing.T) {
	const window = 10 * time.Second
	var end []int64
	var lat sample
	at := int64(0)
	for at < int64(window) {
		cost := int64(time.Millisecond)
		if at > int64(3*time.Second) && at < int64(5*time.Second) {
			cost *= 4 // a two-second spell at a quarter of the speed
		}
		at += cost
		end = append(end, at)
		lat = append(lat, cost)
	}
	rate, p50, p95 := sliceStats(end, lat, window)
	if rate < 990 || rate > 1010 || p50 != 1 || p95 != 1 {
		t.Errorf("slice medians %v/s, p50 %v ms, p95 %v ms; want 1000/s, 1 ms, 1 ms", rate, p50, p95)
	}
	if whole := float64(len(lat)) / window.Seconds(); whole > 900 {
		t.Errorf("the whole-window rate %v/s does not show the spell the test injected", whole)
	}
	if got := lat.ms(99); got != 4 {
		t.Errorf("the whole-window p99 is %v ms, want the spell's 4 ms", got)
	}
	if got := sliceCount(150); got != 1 {
		t.Errorf("150 operations were cut into %d slices", got)
	}
}

// TestOpenLoopChargesStallToLaterOps injects a 200 ms stall into one
// operation of a 100/s schedule on a single sender. The operations due
// during the stall must be charged the time they waited for the sender,
// and the wait — not the generator's own lateness — must report it.
func TestOpenLoopChargesStallToLaterOps(t *testing.T) {
	const (
		rate    = 100.0
		stallAt = 10
		stall   = 200 * time.Millisecond
	)
	r := runOpen(1, rate, 600*time.Millisecond, func(_, k int) (uint8, bool) {
		if k == stallAt {
			time.Sleep(stall)
		}
		return 0, true
	})
	if r.attempted != 60 || r.failed != 0 {
		t.Fatalf("attempted %d failed %d, want 60 and 0", r.attempted, r.failed)
	}
	interval := time.Duration(float64(time.Second) / rate)
	for k := stallAt + 1; k < stallAt+15; k++ {
		// Due (k-stallAt) intervals after the stalled op, sendable only
		// once its 200 ms are over.
		waited := stall - time.Duration(k-stallAt)*interval
		if got := time.Duration(r.lat[k]); got < waited-5*time.Millisecond {
			t.Errorf("op %d: latency %v does not include the %v it waited out", k, got, waited)
		}
		if got := time.Duration(r.wait[k]); got < waited-5*time.Millisecond {
			t.Errorf("op %d: queue wait %v, want at least %v", k, got, waited)
		}
	}
	if got := time.Duration(r.lat[stallAt-1]); got > 50*time.Millisecond {
		t.Errorf("op before the stall took %v", got)
	}
	if max := time.Duration(r.wait.sorted()[len(r.wait)-1]); max < stall-20*time.Millisecond {
		t.Errorf("largest queue wait %v does not show the %v stall", max, stall)
	}
	// The sender fired each delayed op the moment it was free: that is
	// the store's stall, not generator lateness.
	if lag := r.lag.ms(50); lag > 20 {
		t.Errorf("median generator lag %v ms while the sender was merely blocked", lag)
	}
	if r.behind {
		t.Error("the backlog drained before the window ended, yet the loop reports falling behind")
	}
}

func TestOpenLoopReportsGrowingBacklog(t *testing.T) {
	// Each operation takes three times its interval: the backlog grows
	// for the whole window.
	r := runOpen(1, 200, 300*time.Millisecond, func(int, int) (uint8, bool) {
		time.Sleep(15 * time.Millisecond)
		return 0, true
	})
	if !r.behind {
		t.Error("a sender three times too slow was not reported as falling behind")
	}
}

func TestClosedLoopStopsAtLimit(t *testing.T) {
	r := runClosed(2, time.Second, 5, func(int, int) (uint8, bool) { return 0, true })
	if r.attempted != 10 {
		t.Errorf("two clients limited to 5 ops attempted %d", r.attempted)
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	gen := func(seed int64) (uint64, uint64, uint64, uint64) {
		recs := genRecords(seed, 3000)
		return recordsDigest(recs),
			queriesDigest(genPointQueries(seed, recs, 64)),
			queriesDigest(genScanQueries(seed, recs, 64, true)),
			queriesDigest(genDashQueries(seed, recs, 64))
	}
	r1, p1, s1, d1 := gen(7)
	r2, p2, s2, d2 := gen(7)
	if r1 != r2 || p1 != p2 || s1 != s2 || d1 != d2 {
		t.Error("the same seed generated different inputs")
	}
	r3, p3, s3, d3 := gen(8)
	if r1 == r3 || p1 == p3 || s1 == s3 || d1 == d3 {
		t.Error("different seeds generated the same inputs")
	}
	a, b := zipfOrder(7, "z", 100, 1000), zipfOrder(7, "z", 100, 1000)
	for i := range a {
		if a[i] != b[i] || a[i] < 0 || a[i] >= 100 {
			t.Fatalf("zipf order differs or leaves [0,100) at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestOracleAgreesWithStore loads a small store and holds every query
// shape the workloads use to the naive scan.
func TestOracleAgreesWithStore(t *testing.T) {
	const n = 2000
	recs := genRecords(3, n)
	cfg := storeConfig()
	cfg.ChunkMaxBytes = 9 * n
	s, err := openLoaded(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	o := newOracle(recs)
	exec := func(q core.STQuery) (*core.QueryResult, error) { return s.Query(q), nil }
	points := genPointQueries(3, recs, 200)
	if err := firstPass(points, o.expectAll(points), exec); err != nil {
		t.Error("point stream:", err)
	}
	scans := genScanQueries(3, recs, 90, true)
	for i := range scans {
		if scans[i].Limit > 0 {
			scans[i].Limit = 5 // a store this small never fills the workload's 100
		}
	}
	want := o.expectAll(scans)
	if err := firstPass(scans, want, exec); err != nil {
		t.Error("scan stream:", err)
	}
	cut := 0
	for i, q := range scans {
		if q.Limit > 0 && want[i].matches > q.Limit {
			cut++
		}
	}
	if cut == 0 {
		t.Error("no limited query was actually cut by its limit; the limit checks ran on nothing")
	}

	// The oracle must also catch a wrong answer, not only bless a right one.
	q := scans[0]
	docs := s.Query(q).Docs
	if len(docs) < 2 {
		t.Fatalf("query 0 returned %d documents, want at least 2", len(docs))
	}
	if err := verifyDocs(q, docs[1:], want[0]); err == nil {
		t.Error("a result missing one document passed verification")
	}
	other := genPointQueries(4, recs, 1)[0]
	if err := verifyDocs(other, docs, o.expect(other)); err == nil {
		t.Error("documents of another query passed verification")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{OpID: 0, Name: "top", StartNS: 0, EndNS: 100, Parent: -1},
		{OpID: 0, Name: "a", StartNS: 10, EndNS: 40, Parent: 0},
		{OpID: 0, Name: "b", StartNS: 30, EndNS: 60, Parent: 0},  // overlaps a by 10
		{OpID: 0, Name: "a1", StartNS: 12, EndNS: 20, Parent: 1}, // grandchild: not top's
		{OpID: 0, Name: "c", StartNS: 80, EndNS: 90, Parent: 0},
	}
	want := []int64{100 - (50 + 10), 30 - 8, 30, 8, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	if got := unionLen(nil); got != 0 {
		t.Errorf("union of nothing = %d", got)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var off *tracer
	ns, idx := off.timed(0, "x", -1, func() { time.Sleep(time.Millisecond) })
	if idx != -1 || ns < int64(time.Millisecond) {
		t.Errorf("untraced call returned span %d, %d ns", idx, ns)
	}
	on := newTracer()
	_, top := on.timed(3, "top", -1, func() {})
	_, child := on.timed(3, "child", top, func() {})
	if top != 0 || child != 1 || on.spans[1].Parent != 0 || on.spans[1].OpID != 3 {
		t.Errorf("spans %+v", on.spans)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1.0, 3.0], n=4) == [0.5, 2.0, 3.5]
	q1, q3 = quartiles([]float64{1, 3})
	if q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles of [1,3] = %v, %v, want 0.5, 3.5", q1, q3)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v", got)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name  string
		a, b  []float64
		lower bool
		bound float64
		want  string
	}{
		{"same", steady, steady, true, 0.1, "ok"},
		{"slower latency", steady, []float64{120, 121, 119, 120, 120}, true, 0.1, "worse"},
		{"faster latency", steady, []float64{80, 81, 79, 80, 80}, true, 0.1, "ok"},
		{"lower throughput", steady, []float64{80, 81, 79, 80, 80}, false, 0.1, "worse"},
		{"within bound", steady, []float64{105, 106, 104, 105, 105}, true, 0.1, "ok"},
		{"too noisy to call", []float64{100, 60, 140, 90, 110}, []float64{100, 70, 130, 95, 105}, true, 0.1, "unresolved"},
		{"noisy but every run better", []float64{100, 60, 140, 90, 110}, []float64{10, 12, 11, 13, 9}, true, 0.1, "ok"},
	} {
		if _, got := verdict(c.a, c.b, c.lower, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
