package main

// Load generation. All load comes from this one process, from at most
// nproc client goroutines in total — more would time the scheduler
// of the sandbox, not the store.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// opFunc runs operation i — counted per client in a closed loop, over
// the whole schedule in an open one — and reports a class tag for
// per-class latencies and whether the answer was correct.
type opFunc func(client, i int) (tag uint8, ok bool)

// loopResult is everything one load loop observed.
type loopResult struct {
	start     time.Time
	lat       sample  // per attempted op, ns (open loop: from the due time)
	end       []int64 // completion time per op, ns after start, index-aligned with lat
	tags      []uint8 // class tag per op, index-aligned with lat
	wait      sample  // open loop only: send time minus due time, ns
	lag       sample  // open loop only: the generator's own lateness, ns
	attempted int
	failed    int // wrong, errored, shed, partial, or never sent
	elapsed   time.Duration
	// behind reports that an open loop's backlog was still growing when
	// its window ended.
	behind bool
}

// merge folds another client's observations in.
func (r *loopResult) merge(o loopResult) {
	if r.start.IsZero() {
		r.start = o.start
	}
	for _, e := range o.end {
		r.end = append(r.end, e+int64(o.start.Sub(r.start)))
	}
	r.lat = append(r.lat, o.lat...)
	r.tags = append(r.tags, o.tags...)
	r.wait = append(r.wait, o.wait...)
	r.lag = append(r.lag, o.lag...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.elapsed = max(r.elapsed, o.elapsed)
	r.behind = r.behind || o.behind
}

// byTag returns the latencies of one class.
func (r *loopResult) byTag(tag uint8) sample {
	var out sample
	for i, t := range r.tags {
		if t == tag {
			out = append(out, r.lat[i])
		}
	}
	return out
}

// requireClients refuses a configuration that needs more client
// goroutines than the machine has processors.
func requireClients(n int) error {
	if cpus := runtime.NumCPU(); n > cpus {
		return fmt.Errorf("workload needs %d client goroutines, machine has %d processors", n, cpus)
	}
	return nil
}

// runClosed drives clients closed-loop clients for dur: each sends its
// next operation only when the previous one returned. A positive limit
// also stops a client after that many operations (its input ran out).
func runClosed(clients int, dur time.Duration, limit int, op opFunc) loopResult {
	results := make([]loopResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = closedClient(c, start, dur, limit, op)
		}(c)
	}
	wg.Wait()
	var total loopResult
	for _, r := range results {
		total.merge(r)
	}
	return total
}

func closedClient(c int, start time.Time, dur time.Duration, limit int, op opFunc) loopResult {
	r := loopResult{start: start, lat: make(sample, 0, 1<<16), end: make([]int64, 0, 1<<16), tags: make([]uint8, 0, 1<<16)}
	for i := 0; ; i++ {
		t0 := time.Now()
		if t0.Sub(start) >= dur || (limit > 0 && i >= limit) {
			r.elapsed = t0.Sub(start)
			return r
		}
		tag, ok := op(c, i)
		t1 := time.Now()
		r.lat = append(r.lat, int64(t1.Sub(t0)))
		r.end = append(r.end, int64(t1.Sub(start)))
		r.tags = append(r.tags, tag)
		r.attempted++
		if !ok {
			r.failed++
		}
	}
}

// abandonAfter is how far past the end of its window an open loop may
// still be sending before the rest of the schedule is written off as
// failed: the backlog is then growing without bound.
const abandonAfter = time.Second

// runOpen drives a fixed schedule: operation k is due at k/rate after
// the start whether or not earlier ones have returned. Whichever sender
// is free takes the next operation, so one is sent late only while
// every sender is still waiting for a reply. Latency counts from the
// due time, so the wait a stall imposes on later operations is charged
// to them. wait records how long each operation queued for a sender
// (send time minus due time); lag records only the part that is the
// generator's own doing — how long after both its due time and a free
// sender it was actually sent.
func runOpen(senders int, rate float64, dur time.Duration, op opFunc) loopResult {
	total := int64(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	results := make([]loopResult, senders)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			r := loopResult{start: start}
			free := start
			for {
				k := next.Add(1) - 1
				if k >= total {
					break
				}
				due := start.Add(time.Duration(k) * interval)
				now := time.Now()
				if wait := due.Sub(now); wait > 0 {
					time.Sleep(wait)
					now = time.Now()
				}
				if now.Sub(start) > dur+abandonAfter {
					// This one and everything after it is never sent.
					next.Store(total)
					unsent := int(total - k)
					r.attempted += unsent
					r.failed += unsent
					r.behind = true
					break
				}
				tag, ok := op(s, int(k))
				end := time.Now()
				r.lat = append(r.lat, int64(end.Sub(due)))
				r.end = append(r.end, int64(end.Sub(start)))
				r.wait = append(r.wait, int64(now.Sub(due)))
				r.lag = append(r.lag, int64(now.Sub(laterOf(due, free))))
				r.tags = append(r.tags, tag)
				r.attempted++
				if !ok {
					r.failed++
				}
				free = end
			}
			r.elapsed = time.Since(start)
			r.behind = r.behind || fellBehind(r.wait)
			results[s] = r
		}(s)
	}
	wg.Wait()
	var out loopResult
	for _, r := range results {
		out.merge(r)
	}
	return out
}

func laterOf(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// fellBehind reports whether one sender ended further behind the
// schedule than a system that keeps up ever is: the median queueing
// wait over the last tenth of its operations exceeds 5 ms.
func fellBehind(wait sample) bool {
	if len(wait) == 0 {
		return false
	}
	return wait[len(wait)-max(len(wait)/10, 1):].ms(50) > 5
}
