package main

// --compare A B: the regression table. A and B are each a report file
// or a directory of report files (the parent's runs and the change's);
// every (workload, end-to-end metric) pair gets one row, judged against
// the bound BENCHMARK.json fixes for the metric.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// loadReports reads the untraced reports under path, by workload.
func loadReports(path string) (map[string][]*report, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "report-*.json")); err != nil {
			return nil, err
		}
	}
	out := map[string][]*report{}
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(blob, &rep); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", f, err)
		}
		if !rep.Trace {
			out[rep.Workload] = append(out[rep.Workload], &rep)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no untraced reports under %s", path)
	}
	return out, nil
}

// values collects one metric across reports.
func values(reps []*report, name string) []float64 {
	var out []float64
	for _, r := range reps {
		if m, ok := r.EndToEnd[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so
// the spreads printed here are the ones the acceptance check computes.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	data := slices.Clone(xs)
	slices.Sort(data)
	ld := len(data)
	m := ld + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median; 0
// for fewer than two values, where no spread can be seen.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, medianF(xs))
}

// verdict judges the change's values b against the parent's a. worse
// is by how much of the parent's median the change's median is worse
// (negative when it is better).
func verdict(a, b []float64, lowerIsBetter bool, bound float64) (worse float64, word string) {
	ma, mb := medianF(a), medianF(b)
	if lowerIsBetter {
		worse = ratio(mb-ma, ma)
	} else {
		worse = ratio(ma-mb, ma)
	}
	if max(spread(a), spread(b)) > bound {
		// Too noisy to call unchanged — unless every run of the change
		// reads better than every run of the parent.
		if lowerIsBetter && slices.Max(b) < slices.Min(a) || !lowerIsBetter && slices.Min(b) > slices.Max(a) {
			return worse, "ok"
		}
		return worse, "unresolved"
	}
	if worse > bound {
		return worse, "worse"
	}
	return worse, "ok"
}

func compareReports(sp *spec, pathA, pathB string) error {
	a, err := loadReports(pathA)
	if err != nil {
		return err
	}
	b, err := loadReports(pathB)
	if err != nil {
		return err
	}
	var names []string
	for name := range a {
		if _, ok := b[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("%s and %s share no workload", pathA, pathB)
	}
	fmt.Printf("%-12s %-15s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "A median", "B median", "worse", "bound", "spread", "verdict")
	var bad []string
	for _, name := range names {
		for _, m := range sp.EndToEnd {
			va, vb := values(a[name], m.Name), values(b[name], m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, word := verdict(va, vb, m.Better == "lower", m.Bound)
			fmt.Printf("%-12s %-15s %14.4f %14.4f %+7.1f%% %6.0f%% %6.1f%%  %s (n=%d,%d)\n",
				name, m.Name, medianF(va), medianF(vb), 100*worse, 100*m.Bound,
				100*max(spread(va), spread(vb)), word, len(va), len(vb))
			if word == "worse" {
				bad = append(bad, name+"/"+m.Name)
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("worse than the bound: %s", strings.Join(bad, ", "))
	}
	return nil
}
