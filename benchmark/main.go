// Command benchmark is the repository's benchmark: it runs one named
// workload from a seed against the Hilbert-sharded store, checks every
// answer against a naive-scan oracle, and prints every metric by name
// with its unit. See README.md in this directory.
//
//	benchmark --workload point-local --seed 1 --seconds 10 --trace 0
//	benchmark --workload range-net --trace 1      # traced run: per-layer metrics
//	benchmark --compare A.json B.json             # regression table
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics, as BENCHMARK.json's contract
// asks; the full report, with provenance, goes to the output directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
)

// spec is BENCHMARK.json: the names this program must print.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// provenance says what produced a report.
type provenance struct {
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	GitDescribe string  `json:"git_describe"`
	Time        string  `json:"time"`
}

// report is the full record of one run, written to the output
// directory and read back by --compare.
type report struct {
	Workload   string            `json:"workload"`
	Trace      bool              `json:"trace"`
	Provenance provenance        `json:"provenance"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Invalid    []string          `json:"invalid,omitempty"`
	Mistakes   []string          `json:"mistakes,omitempty"`
	Inputs     map[string]string `json:"inputs"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	PerLayer   map[string]metric `json:"per_layer"`
	Phases     []phase           `json:"phases"`
}

// gitDescribe identifies the commit; a checkout that is not a git
// repository reads as unknown.
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// run executes one workload end to end.
func run(cfg config) (*report, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	b := newBench(cfg)
	goroutines := leakcheck.Baseline()
	inputs, err := runPhases(b, w)
	w.close()
	if err != nil {
		return nil, err
	}
	if err := leakcheck.Settle(goroutines, 100, 20*time.Millisecond); err != nil {
		return nil, fmt.Errorf("goroutines outlived the run: %w", err)
	}
	b.set("fail_ratio", ratio(float64(b.failed), float64(b.attempted)), "ratio")
	// The end-to-end metrics only some workloads have cannot be gated on
	// every workload; a traced run lists them beside the layer metrics.
	for _, name := range []string{"slo_rate_qps", "ingest_ack_p50_ms", "ingest_ack_p99_ms", "recovery_s", "disk_amp", "fail_ratio"} {
		if m, ok := b.e2e[name]; ok {
			b.layer["e2e."+name] = m
		}
	}
	if cfg.trace {
		if err := writeTrace(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"), b.spans); err != nil {
			return nil, err
		}
	}
	return &report{
		Workload: cfg.workload,
		Trace:    cfg.trace,
		Provenance: provenance{
			Seed:        cfg.seed,
			Seconds:     cfg.seconds,
			NProc:       runtime.NumCPU(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			GoVersion:   runtime.Version(),
			GitDescribe: gitDescribe(),
			Time:        time.Now().UTC().Format(time.RFC3339),
		},
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Invalid:   b.invalid,
		Mistakes:  b.mistakes,
		Inputs:    inputs,
		EndToEnd:  b.e2e,
		PerLayer:  b.layer,
		Phases:    b.phases,
	}, nil
}

// runPhases is set-up, verification, the timed window and — on a
// traced run — the replay. The caller closes the workload.
func runPhases(b *bench, w workload) (map[string]string, error) {
	repeats := setupRepeats
	if b.cfg.trace {
		repeats = 1
	}
	var builds []float64
	for r := 0; r < repeats; r++ {
		if r > 0 {
			w.close()
		}
		start := time.Now()
		if err := b.phase("build", func() error { return w.build(b) }); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		builds = append(builds, time.Since(start).Seconds())
	}
	inputs := w.inputs()
	start := time.Now()
	oracle, err := w.verify(b)
	if err != nil {
		return nil, err
	}
	firstPass := time.Since(start) - oracle
	b.phases = append(b.phases, phase{"oracle", oracle.Seconds()}, phase{"first-pass", firstPass.Seconds()})
	b.setN("setup_s", medianF(builds)+firstPass.Seconds(), "s", len(builds))
	b.set("oracle_s", oracle.Seconds(), "s")
	b.set("heap_mb", heapMB(), "MiB")
	b.lay("loadgen.self_us_per_op", selfCostUS(), "us")

	if err := w.measure(b); err != nil {
		return nil, err
	}
	if b.cfg.trace {
		t := newTracer()
		if err := b.phase("replay", func() error { return w.replay(b, t) }); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		b.spans = t.spans
	}
	return inputs, nil
}

// summarize fingerprints what a workload generated, so two reports
// can be seen to have measured the same inputs.
func summarize(records int, recordsDigest uint64, qs []core.STQuery) map[string]string {
	return map[string]string{
		"records":        fmt.Sprint(records),
		"records_digest": fmt.Sprintf("%016x", recordsDigest),
		"queries":        fmt.Sprint(len(qs)),
		"queries_digest": fmt.Sprintf("%016x", queriesDigest(qs)),
	}
}

// contractLine is the last line of standard output: every end-to-end
// metric BENCHMARK.json names on an untraced run, every per-layer
// metric on a traced one. A layer metric the workload never exercises
// reads 0; a missing end-to-end metric is a bug in this program.
func contractLine(rep *report, sp *spec) (string, error) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, max(rep.Attempted, 1), rep.Failed, map[string]metric{}}
	if rep.Trace {
		for _, m := range sp.PerLayer {
			out.Metrics[m.Name] = metric{Value: rep.PerLayer[m.Name].Value, Unit: m.Unit}
		}
	} else {
		for _, m := range sp.EndToEnd {
			v, ok := rep.EndToEnd[m.Name]
			if !ok {
				return "", fmt.Errorf("workload %s did not measure end-to-end metric %s", rep.Workload, m.Name)
			}
			out.Metrics[m.Name] = metric{Value: v.Value, Unit: m.Unit}
		}
	}
	blob, err := json.Marshal(out)
	return string(blob), err
}

// printReport lists every metric by name with its unit.
func printReport(rep *report) {
	fmt.Printf("workload %s  seed %d  seconds %g  trace %v  commit %s  %s  nproc %d\n",
		rep.Workload, rep.Provenance.Seed, rep.Provenance.Seconds, rep.Trace,
		rep.Provenance.GitDescribe, rep.Provenance.GoVersion, rep.Provenance.NProc)
	for _, p := range rep.Phases {
		fmt.Printf("  phase %-14s %8.3f s\n", p.Name, p.Seconds)
	}
	section := func(title string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for name := range ms {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Println(title)
		for _, name := range names {
			m := ms[name]
			line := fmt.Sprintf("  %-34s %14.4f %s", name, m.Value, m.Unit)
			if m.Samples > 0 {
				line += fmt.Sprintf("  (n=%d)", m.Samples)
			}
			fmt.Println(line)
		}
	}
	section("end to end:", rep.EndToEnd)
	if rep.Trace {
		section("per layer:", rep.PerLayer)
	}
	for _, why := range rep.Invalid {
		fmt.Println("INVALID:", why)
	}
	for _, m := range rep.Mistakes {
		fmt.Println("WRONG:", m)
	}
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func main() {
	var cfg config
	var trace int
	var specPath, compare string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: one of "+strings.Join(workloadNames, ", ")+", or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the data set and every query stream")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "measuring time per run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced replay too and prints the per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/out", "directory for reports, traces and temporary stores")
	flag.StringVar(&specPath, "spec", "BENCHMARK.json", "the benchmark's declaration")
	flag.StringVar(&compare, "compare", "", "compare the reports under this path (file or directory) with those under the next argument")
	flag.Parse()

	if err := mainErr(cfg, trace != 0, specPath, compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(cfg config, trace bool, specPath, compare string, args []string) error {
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	if compare != "" {
		if len(args) != 1 {
			return fmt.Errorf("--compare A B needs two paths")
		}
		return compareReports(sp, compare, args[0])
	}
	cfg.trace = trace
	if cfg.seconds <= 0 {
		cfg.seconds = float64(sp.RunSeconds)
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	for _, name := range names {
		cfg.workload = name
		rep, err := run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		printReport(rep)
		suffix := ""
		if cfg.trace {
			suffix = "-trace"
		}
		path := filepath.Join(cfg.outDir, fmt.Sprintf("report-%s-seed%d%s.json", name, cfg.seed, suffix))
		if err := writeJSON(path, rep); err != nil {
			return err
		}
		line, err := contractLine(rep, sp)
		if err != nil {
			return err
		}
		fmt.Println(line)
		if !rep.Correct && name != "ingest" && name != "mixed-rw" {
			return fmt.Errorf("%s: operations failed on a read-only workload", name)
		}
	}
	return nil
}
