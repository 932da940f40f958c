package main

// The run harness: what every workload shares — configuration, metric
// bookkeeping, the measured window (CPU, allocation and GC deltas taken
// around it, never inside it) and the shared store set-up.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

// window returns the share frac of the run's measuring time.
func (c config) window(frac float64) time.Duration {
	return time.Duration(frac * c.seconds * float64(time.Second))
}

// Fixed phase lengths, identical on every commit.
const (
	warmupTime = time.Second
	// setupRepeats is how many times an untraced run sets up; setup_s
	// reports the median so one slow load does not read as a regression.
	// Two is what the driver's time cap leaves room for.
	setupRepeats = 2
	// traceOps is how many distinct queries (and traceBatches how many
	// batches) the traced replay walks through the layers.
	traceOps     = 512
	traceBatches = 256
	// sloP99MS is the latency limit of the open-loop rate steps.
	sloP99MS = 50.0
	// maxLagP99MS is the send lateness beyond which an open-loop run
	// measured its generator, not the store.
	maxLagP99MS = 10.0
)

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// phase is the wall time of one named part of the run.
type phase struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// bench accumulates one run's observations.
type bench struct {
	cfg       config
	e2e       map[string]metric
	layer     map[string]metric
	attempted int
	failed    int
	phases    []phase
	// invalid lists the reasons the run's numbers should not be
	// trusted (too few samples behind a tail, a late generator).
	invalid []string
	// mistakes keeps the first few verification failures for the report.
	mistakes []string
	spans    []span
}

func newBench(cfg config) *bench {
	return &bench{cfg: cfg, e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (b *bench) set(name string, v float64, unit string) {
	b.e2e[name] = metric{Value: v, Unit: unit}
}

func (b *bench) setN(name string, v float64, unit string, n int) {
	b.e2e[name] = metric{Value: v, Unit: unit, Samples: n}
}

func (b *bench) lay(name string, v float64, unit string) {
	b.layer[name] = metric{Value: v, Unit: unit}
}

// phase times fn as a named part of the run.
func (b *bench) phase(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	b.phases = append(b.phases, phase{name, time.Since(start).Seconds()})
	return err
}

// mistake records one verification failure.
func (b *bench) mistake(format string, args ...any) {
	if len(b.mistakes) < 8 {
		b.mistakes = append(b.mistakes, fmt.Sprintf(format, args...))
	}
}

// count adds a loop's operations to the run totals.
func (b *bench) count(r loopResult) {
	b.attempted += r.attempted
	b.failed += r.failed
}

// tail reports a p99 under name and marks the run invalid when the
// sample is too small to support it.
func (b *bench) tail(name string, s sample) {
	b.setN(name, s.ms(99), "ms", len(s))
	if !supports(len(s), 99, tailBeyond) {
		b.invalid = append(b.invalid, fmt.Sprintf("%s rests on %d samples, needs %d", name, len(s), tailBeyond*100))
	}
}

// queryMetrics reports a query loop over its whole window under the
// ISSUE's names, and as the workload's primary operation.
func (b *bench) queryMetrics(r loopResult) {
	qps := float64(r.attempted-r.failed) / r.elapsed.Seconds()
	b.setN("query_qps", qps, "1/s", r.attempted)
	b.setN("query_p50_ms", r.lat.ms(50), "ms", len(r.lat))
	b.tail("query_p99_ms", r.lat)
	b.primary(r)
}

// primary reports the workload's primary operation under the names
// BENCHMARK.json gates on every workload: medians over time slices of
// the loop's window (see sliceStats).
func (b *bench) primary(r loopResult) {
	rate, p50, p95 := sliceStats(r.end, r.lat, r.elapsed)
	b.setN("ops_per_s", rate, "1/s", sliceCount(len(r.lat)))
	b.setN("op_p50_ms", p50, "ms", len(r.lat))
	b.setN("op_p95_ms", p95, "ms", len(r.lat))
}

// usage is the process's CPU time and allocator state at one instant.
type usage struct {
	cpu time.Duration
	mem runtime.MemStats
}

func readUsage() usage {
	u := usage{cpu: cpuTime()}
	runtime.ReadMemStats(&u.mem)
	return u
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measured runs the timed window fn — which returns the loops it drove
// — between two usage readings and reports the cost figures: CPU per
// operation end to end, allocation and GC per operation as proc.* layer
// metrics. CPU time is also sampled every cpuSampleEvery during the
// window; cpu_ms_per_op is the median over those slices of the CPU
// spent in the slice per operation completed in it.
func (b *bench) measured(fn func() []loopResult) {
	before := readUsage()
	start := time.Now()
	stop := make(chan struct{})
	done := make(chan []time.Duration)
	go func() {
		tick := time.NewTicker(cpuSampleEvery)
		defer tick.Stop()
		marks := []time.Duration{before.cpu}
		for {
			select {
			case <-tick.C:
				marks = append(marks, cpuTime())
			case <-stop:
				done <- marks
				return
			}
		}
	}()
	loops := fn()
	close(stop)
	marks := <-done
	b.phases = append(b.phases, phase{"timed", time.Since(start).Seconds()})
	after := readUsage()

	ops := 0
	completed := make([]int, len(marks)-1)
	for _, r := range loops {
		ops += r.attempted
		for _, e := range r.end {
			if s := int((r.start.Sub(start) + time.Duration(e)) / cpuSampleEvery); s < len(completed) {
				completed[s]++
			}
		}
	}
	var perOp []float64
	for s, n := range completed {
		if n > 0 {
			perOp = append(perOp, float64(marks[s+1]-marks[s])/1e6/float64(n))
		}
	}
	n := float64(max(ops, 1))
	b.setN("cpu_ms_per_op", medianF(perOp), "ms", len(perOp))
	b.lay("proc.cpu_ms_per_op_window", float64(after.cpu-before.cpu)/1e6/n, "ms")
	b.lay("proc.allocs_per_op", float64(after.mem.Mallocs-before.mem.Mallocs)/n, "count")
	b.lay("proc.alloc_bytes_per_op", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/n, "B")
	b.lay("proc.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC), "count")
	b.lay("proc.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, "ms")
}

// heapMB forces a collection and reports the heap in use.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// storeConfig is the shared store shape: the paper's proposal on 12
// shards, chunks sized for the base data set, everything else default.
func storeConfig() core.Config {
	return core.Config{
		Approach:      core.Hil,
		Shards:        shardCount,
		ChunkMaxBytes: 9 * baseRecords,
	}
}

// openLoaded opens an in-memory store and bulk-loads recs.
func openLoaded(cfg core.Config, recs []core.Record) (*core.Store, error) {
	s, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Load(recs); err != nil {
		return nil, err
	}
	return s, nil
}

// tempDir makes a fresh directory for a durable store under the output
// directory, so the run writes nothing outside its checkout.
func (b *bench) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(b.cfg.outDir, prefix)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// queryOK is the timed loop's check of one document query: no error,
// no degraded answer, and the count the oracle expects.
func queryOK(res *core.QueryResult, err error, want expectation) bool {
	return err == nil && res != nil && !res.Stats.Partial && len(res.Stats.FailedShards) == 0 &&
		len(res.Docs) == want.returned
}

// firstPass executes every distinct query once — warming the plan
// caches — and holds each answer to the oracle's count and digest.
func firstPass(qs []core.STQuery, want []expectation, exec func(core.STQuery) (*core.QueryResult, error)) error {
	for i, q := range qs {
		res, err := exec(q)
		if err != nil {
			return fmt.Errorf("first pass, query %d: %w", i, err)
		}
		if res.Stats.Partial {
			return fmt.Errorf("first pass, query %d: partial answer", i)
		}
		if err := verifyDocs(q, res.Docs, want[i]); err != nil {
			return fmt.Errorf("first pass, query %d: %w", i, err)
		}
	}
	return nil
}

// selfCostUS prices the harness's own bookkeeping: a closed loop around
// an operation that does nothing.
func selfCostUS() float64 {
	r := runClosed(1, 50*time.Millisecond, 0, func(int, int) (uint8, bool) { return 0, true })
	return float64(r.elapsed.Microseconds()) / float64(max(r.attempted, 1))
}
