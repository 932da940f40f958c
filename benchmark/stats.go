package main

// Sample statistics and span arithmetic shared by the timed windows,
// the traced replay and the compare mode.

import (
	"math"
	"slices"
	"time"
)

// tailBeyond is how many samples must lie beyond a tail percentile
// before it is reported as supported: p99 needs 2000 samples.
const tailBeyond = 20

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending sample; 0 for an empty one.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(rankOf(len(sorted), p), 1)-1]
}

// rankOf is the nearest rank of the p-th percentile among n samples.
// The small slack keeps a product that should be whole (99.9 % of
// 10 000) from rounding up past it.
func rankOf(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// supports reports whether n samples leave at least beyond of them
// above the p-th percentile.
func supports(n int, p float64, beyond int) bool {
	return n-rankOf(n, p) >= beyond
}

// sample is a bag of latencies in nanoseconds.
type sample []int64

// sorted returns an ascending copy.
func (s sample) sorted() []int64 {
	out := slices.Clone(s)
	slices.Sort(out)
	return out
}

// ms is the p-th percentile in milliseconds.
func (s sample) ms(p float64) float64 {
	return float64(percentile(s.sorted(), p)) / 1e6
}

// us is the p-th percentile in microseconds.
func (s sample) us(p float64) float64 {
	return float64(percentile(s.sorted(), p)) / 1e3
}

func (s sample) sum() int64 {
	var t int64
	for _, v := range s {
		t += v
	}
	return t
}

// medianF is the median of a float sample (mean of the middle pair for
// an even count); 0 for an empty one.
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Slicing. The sandbox's speed wanders by tens of percent from one
// second to the next, so a figure taken over the whole window moves
// with the host more than with the code. The gated figures are
// therefore medians over equal time slices of the window: a slow spell
// that covers less than half the slices does not move them.
const (
	maxSlices      = 40
	opsPerSlice    = 200 // ten samples beyond a slice's p95
	cpuSampleEvery = 250 * time.Millisecond
)

// sliceTail is the tail percentile taken inside a slice: the highest
// that leaves ten samples beyond it in a slice of opsPerSlice.
const sliceTail = 95

// sliceCount is how many slices n operations are cut into.
func sliceCount(n int) int { return min(max(n/opsPerSlice, 1), maxSlices) }

// sliceStats cuts the operations that completed within window into
// equal time slices and returns the median over slices of the
// completion rate, the median latency and the p95 latency.
func sliceStats(end []int64, lat sample, window time.Duration) (perSecond, p50ms, tailms float64) {
	k := sliceCount(len(lat))
	width := max(int64(window)/int64(k), 1)
	groups := make([]sample, k)
	for i, e := range end {
		if s := int(e / width); s < k {
			groups[s] = append(groups[s], lat[i])
		}
	}
	var rates, p50s, tails []float64
	for _, g := range groups {
		rates = append(rates, float64(len(g))/(float64(width)/1e9))
		if len(g) > 0 {
			sorted := g.sorted()
			p50s = append(p50s, float64(percentile(sorted, 50))/1e6)
			tails = append(tails, float64(percentile(sorted, sliceTail))/1e6)
		}
	}
	return medianF(rates), medianF(p50s), medianF(tails)
}

// ratio is a/b, 0 when b is 0 — per-layer ratios of a workload that
// never exercises the layer read as 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// span is one timed call into a layer. Spans of one operation share
// OpID; Parent is the index of the causing span in the same trace, -1
// for a top-level span.
type span struct {
	OpID    int    `json:"op_id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer collects spans in memory; a nil tracer records nothing, which
// is how the same replay runs untraced to price the tracing itself.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// timed runs fn, records it as a span when tracing, and returns its
// duration in nanoseconds and its span index (-1 untraced).
func (t *tracer) timed(op int, name string, parent int, fn func()) (int64, int) {
	start := time.Now()
	fn()
	end := time.Now()
	if t == nil {
		return int64(end.Sub(start)), -1
	}
	t.spans = append(t.spans, span{
		OpID:    op,
		Name:    name,
		StartNS: int64(start.Sub(t.epoch)),
		EndNS:   int64(end.Sub(t.epoch)),
		Parent:  parent,
	})
	return int64(end.Sub(start)), len(t.spans) - 1
}

// selfTimes computes every span's self time: its duration minus the
// length of the union of its children's intervals. Children may
// overlap each other (parallel parts) — the union counts shared time
// once. The replay's children are separate calls made after their
// parent returned, so the union is not clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - unionLen(children[i])
	}
	return out
}

// unionLen is the total length covered by the intervals.
func unionLen(ivs [][2]int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var total, end int64
	end = math.MinInt64
	for _, iv := range ivs {
		if iv[0] > end {
			total += iv[1] - iv[0]
			end = iv[1]
		} else if iv[1] > end {
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}
