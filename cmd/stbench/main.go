// Command stbench regenerates the paper's tables and figures on the
// simulated cluster.
//
// Usage:
//
//	stbench [-exp id[,id...]] [-records n] [-shards n] [-runs n] [-list] [-quiet]
//	        [-dir path] [-cpuprofile path] [-memprofile path]
//
// Examples:
//
//	stbench -list                 # show every experiment id
//	stbench -exp fig6             # one figure at the default scale
//	stbench -exp all -records 80000
//
// End-to-end throughput and latency are measured by the repository's
// benchmark (benchmark/, declared in BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		expIDs  = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		records = flag.Int("records", 0, "R data set size (default 40000; S is always 2x)")
		shards  = flag.Int("shards", 0, "number of shards (default 12)")
		runs    = flag.Int("runs", 0, "measured repetitions per query (default 3)")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		quiet   = flag.Bool("quiet", false, "suppress progress output")
		dir     = flag.String("dir", "", "persist loaded stores under this directory and reopen them on later runs")

		// Profiling (any experiment).
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProfile = flag.String("memprofile", "", "write an allocation heap profile to this file on exit")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return
	}

	scale := bench.DefaultScale()
	if *records > 0 {
		scale.RRecords = *records
	}
	if *shards > 0 {
		scale.Shards = *shards
	}
	if *runs > 0 {
		scale.Runs = *runs
	}
	env := bench.NewEnv(scale)
	env.Dir = *dir
	if !*quiet {
		env.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "  .. "+format+"\n", args...)
		}
	}

	var selected []bench.Experiment
	if *expIDs == "all" {
		// The ablations rebuild large stores; keep the default run to
		// the paper's own tables and figures.
		for _, e := range bench.Experiments() {
			if !strings.HasPrefix(e.ID, "abl-") {
				selected = append(selected, e)
			}
		}
	} else {
		for _, id := range strings.Split(*expIDs, ",") {
			id = strings.TrimSpace(id)
			e, ok := bench.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "stbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	fmt.Printf("stbench: %d shards, R=%d records, S=%d records, %d+%d runs/query\n\n",
		scale.Shards, scale.RRecords, 2*scale.RRecords, scale.Warmup, scale.Runs)
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "stbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "stbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush the most recent allocations into the profile
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "stbench: -memprofile: %v\n", err)
			}
		}()
	}

	for _, e := range selected {
		start := time.Now()
		if err := e.Run(env, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "stbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "  [%s done in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
}
