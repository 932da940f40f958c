// Command stchaos is the seeded deterministic chaos orchestrator: it
// stands up a small real cluster (2 stshardd processes behind
// fault-injecting proxies, 1 strouterd), drives mixed query load
// through the router, and cycles through kill/restart, link-fault and
// overload-burst rounds — asserting after every round that the
// cluster degraded *explicitly* and recovered *identically*.
//
// Invariants checked every run:
//
//   - every routed reply is byte-correct against an in-process
//     reference store, or explicitly Partial / an explicit error —
//     never silently short;
//   - a SIGTERM'd daemon drains and exits 0 inside its budget; a
//     restarted daemon announces the identical content fingerprint;
//   - overload bursts are shed with structured overload errors
//     carrying retry hints, while admitted requests stay bounded;
//   - after the soak, no in-flight requests linger on any daemon,
//     heap stays bounded, and the orchestrator itself leaks no
//     goroutines.
//
// The fault/kill/burst schedule derives entirely from -seed, so a
// failing run replays with the same flags.
//
//	stchaos -shardd ./stshardd -routerd ./strouterd -cycles 20 -seed 1
package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geo"
	"repro/internal/leakcheck"
	"repro/internal/netconn"
	"repro/internal/query"
	"repro/internal/sharding"
)

var verbose bool

func vlog(format string, args ...any) {
	if verbose {
		fmt.Fprintf(os.Stderr, "stchaos: "+format+"\n", args...)
	}
}

func main() {
	var (
		seed        = flag.Int64("seed", 1, "schedule seed (kills, faults, bursts all derive from it)")
		cycles      = flag.Int("cycles", 20, "kill/restart + fault + burst cycles")
		records     = flag.Int("records", 4000, "R-like records in the cluster")
		shards      = flag.Int("shards", 4, "shards in the cluster")
		sharddBin   = flag.String("shardd", "stshardd", "path to the stshardd binary")
		routerdBin  = flag.String("routerd", "strouterd", "path to the strouterd binary")
		port        = flag.Int("port", 7821, "base port: router on it, shard daemons above it")
		burst       = flag.Int("burst", 4, "overload burst factor (burst x max-inflight concurrent queries)")
		maxInflight = flag.Int("max-inflight", 8, "per-daemon in-flight cap under test")
		drain       = flag.Duration("drain", 3*time.Second, "daemon drain budget")
		workers     = flag.Int("workers", 3, "concurrent load workers through the router")
		ingestMode  = flag.Bool("ingest", false, "run the crash-safe continuous-ingest soak instead of the query-path soak")
		ingestRecs  = flag.Int("ingest-records", 60000, "records in the ingest stream (-ingest only)")
		authSecret  = flag.String("auth-secret", "", "shared handshake secret passed to every daemon and client (empty = auth off)")
	)
	flag.BoolVar(&verbose, "v", false, "log every cycle")
	flag.Parse()

	if *ingestMode {
		os.Exit(runIngestSoak(ingestCfg{
			seed:       *seed,
			cycles:     *cycles,
			records:    *records,
			ingestRecs: *ingestRecs,
			shards:     *shards,
			sharddBin:  *sharddBin,
			routerdBin: *routerdBin,
			port:       *port,
			burst:      *burst,
			workers:    *workers,
			drain:      *drain,
			secret:     *authSecret,
		}))
	}

	baseline := leakcheck.Baseline()
	ch := &chaos{
		rng:         rand.New(rand.NewSource(*seed)),
		drain:       *drain,
		burst:       *burst,
		maxInflight: *maxInflight,
	}

	// The reference store: the byte-truth every routed reply is
	// checked against. Construction mirrors the daemons' exactly.
	fmt.Fprintf(os.Stderr, "stchaos: building reference store (%d records, %d shards)...\n", *records, *shards)
	recs := data.GenerateReal(data.RealConfig{Records: *records})
	ref, err := core.Open(core.Config{Approach: core.Hil, Shards: *shards, DataExtent: data.MBROf(recs)})
	if err != nil {
		fatal("reference store: %v", err)
	}
	if err := ref.Load(recs); err != nil {
		fatal("reference load: %v", err)
	}
	ch.ref = ref
	ch.queries = chaosQueries(data.MBROf(recs))
	for _, q := range ch.queries {
		res := ref.Query(q)
		ch.expect = append(ch.expect, expectT{count: len(res.Docs), digest: digestDocs(res)})
	}
	docs, sum := ref.Fingerprint()
	fmt.Fprintf(os.Stderr, "stchaos: reference fingerprint %016x (%d docs)\n", sum, docs)
	ch.docs, ch.sum = uint64(docs), sum

	// Two shard daemons: even shards on one, odd on the other, each
	// behind a fault proxy the router dials through.
	common := []string{
		"-approach", "hil",
		"-records", fmt.Sprint(*records),
		"-shards", fmt.Sprint(*shards),
		"-max-inflight", fmt.Sprint(*maxInflight),
		// On an unloaded in-memory store ops finish in microseconds and
		// admission control would never engage; 2ms of injected
		// execution latency makes slots stay busy, so a 4x burst
		// queues past the 1ms admission wait and must shed.
		"-chaos-latency", "2ms",
		"-admission-wait", "1ms",
		"-retry-after", "10ms",
		"-drain", drain.String(),
	}
	for i := 0; i < 2; i++ {
		addr := fmt.Sprintf("127.0.0.1:%d", *port+1+i)
		serve := ""
		for id := i; id < *shards; id += 2 {
			if serve != "" {
				serve += ","
			}
			serve += fmt.Sprint(id)
		}
		d := &daemon{name: fmt.Sprintf("shardd%d", i), bin: *sharddBin,
			args: append([]string{"-addr", addr, "-serve", serve}, common...), addr: addr}
		if err := d.start(); err != nil {
			fatal("%s: %v", d.name, err)
		}
		ch.daemons = append(ch.daemons, d)
		proxy, err := netconn.NewProxy(addr)
		if err != nil {
			fatal("proxy for %s: %v", d.name, err)
		}
		ch.proxies = append(ch.proxies, proxy)
	}
	defer func() {
		for _, p := range ch.proxies {
			p.Close()
		}
	}()

	// Wait for both daemons before starting the router, and pin their
	// fingerprints once here.
	for _, d := range ch.daemons {
		if err := ch.awaitReady(d); err != nil {
			fatal("%v", err)
		}
	}

	routerAddr := fmt.Sprintf("127.0.0.1:%d", *port)
	ch.router = &daemon{name: "routerd", bin: *routerdBin, addr: routerAddr, args: append([]string{
		"-addr", routerAddr,
		"-addrs", ch.proxies[0].Addr() + "," + ch.proxies[1].Addr(),
	}, common[:6]...)} // approach/records/shards; the rest tune the shard daemons
	if err := ch.router.start(); err != nil {
		fatal("routerd: %v", err)
	}
	if err := ch.awaitReady(ch.router); err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "stchaos: cluster up (router %s), %d cycles, seed %d\n", routerAddr, *cycles, *seed)

	// Mixed load through the router for the whole soak.
	loadCtx, stopLoad := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ch.loadWorker(loadCtx, routerAddr, rand.New(rand.NewSource(*seed^int64(w+1))))
		}(w)
	}

	for cycle := 0; cycle < *cycles; cycle++ {
		ch.runCycle(cycle)
	}

	stopLoad()
	wg.Wait()

	// Post-soak hygiene: no in-flight work may linger once load stops,
	// and heap stays bounded.
	for _, d := range ch.daemons {
		ch.awaitQuiesce(d)
	}

	// Graceful shutdown of the whole cluster: SIGTERM must drain and
	// exit 0 everywhere.
	for _, d := range append(ch.daemons, ch.router) {
		if err := d.stop(syscall.SIGTERM, ch.drain+5*time.Second); err != nil {
			ch.violate("final shutdown: %s: %v", d.name, err)
		}
	}
	for _, p := range ch.proxies {
		p.Close()
	}
	ch.proxies = nil

	if err := leakcheck.Settle(baseline, 100, 20*time.Millisecond); err != nil {
		ch.violate("orchestrator leaked goroutines: %v", err)
	}

	fmt.Fprintf(os.Stderr,
		"stchaos: done: %d cycles, load ok=%d partial=%d shed=%d errored=%d; burst admitted=%d shed=%d (max admitted latency %v)\n",
		*cycles, ch.ok.Load(), ch.partial.Load(), ch.shed.Load(), ch.errored.Load(),
		ch.burstAdmitted.Load(), ch.burstShed.Load(), time.Duration(ch.burstMaxNS.Load()))
	if len(ch.violations) > 0 {
		fmt.Fprintf(os.Stderr, "stchaos: %d INVARIANT VIOLATIONS:\n", len(ch.violations))
		for _, v := range ch.violations {
			fmt.Fprintf(os.Stderr, "  - %s\n", v)
		}
		os.Exit(1)
	}
	if ch.ok.Load() == 0 {
		fmt.Fprintln(os.Stderr, "stchaos: no byte-verified replies at all — soak proved nothing")
		os.Exit(1)
	}
	if ch.burstShed.Load() == 0 {
		fmt.Fprintln(os.Stderr, "stchaos: overload bursts never shed — admission control went unexercised")
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "stchaos: zero invariant violations")
}

type expectT struct {
	count  int
	digest [32]byte
}

type chaos struct {
	rng         *rand.Rand
	ref         *core.Store
	queries     []core.STQuery
	expect      []expectT
	docs, sum   uint64
	daemons     []*daemon
	router      *daemon
	proxies     []*netconn.Proxy
	drain       time.Duration
	burst       int
	maxInflight int

	ok, partial, shed, errored atomic.Int64
	burstAdmitted, burstShed   atomic.Int64
	burstMaxNS                 atomic.Int64
	mu                         sync.Mutex
	violations                 []string
}

func (ch *chaos) violate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	ch.mu.Lock()
	ch.violations = append(ch.violations, msg)
	ch.mu.Unlock()
	fmt.Fprintf(os.Stderr, "stchaos: VIOLATION: %s\n", msg)
}

// chaosQueries is the fixed verification set: broadcast scans,
// targeted windows, and pushdown (limit/top-k) shapes.
func chaosQueries(extent geo.Rect) []core.STQuery {
	inner := func(f float64) geo.Rect {
		w, h := extent.Width()*f/2, extent.Height()*f/2
		cLon := (extent.Min.Lon + extent.Max.Lon) / 2
		cLat := (extent.Min.Lat + extent.Max.Lat) / 2
		return geo.NewRect(cLon-w, cLat-h, cLon+w, cLat+h)
	}
	day := 24 * time.Hour
	return []core.STQuery{
		{Rect: extent, From: data.RStart, To: data.RStart.Add(90 * day)},
		{Rect: inner(0.5), From: data.RStart, To: data.RStart.Add(10 * day)},
		{Rect: inner(0.25), From: data.RStart.Add(5 * day), To: data.RStart.Add(35 * day)},
		{Rect: extent, From: data.RStart.Add(2 * day), To: data.RStart.Add(3 * day)},
		{Rect: extent, From: data.RStart, To: data.RStart.Add(60 * day), Limit: 100, Sort: core.SortDateAsc},
		{Rect: inner(0.5), From: data.RStart, To: data.RStart.Add(60 * day), Limit: 50, Sort: core.SortDateDesc},
	}
}

func digestDocs(res *core.QueryResult) [32]byte {
	h := sha256.New()
	for _, d := range res.Docs {
		h.Write(d)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// awaitReady probes a daemon until it answers ready, and verifies it
// announces the reference fingerprint — the restart-recovery
// invariant.
func (ch *chaos) awaitReady(d *daemon) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		hello, stats, err := netconn.Probe(d.addr, netconn.Options{WaitReady: 5 * time.Second})
		if err == nil && stats.State == 1 /* wire.StateReady */ {
			if hello.Docs != ch.docs || hello.Checksum != ch.sum {
				return fmt.Errorf("%s recovered with fingerprint (%d, %016x), want (%d, %016x)",
					d.name, hello.Docs, hello.Checksum, ch.docs, ch.sum)
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready: %v", d.name, err)
		}
	}
}

// awaitQuiesce waits for a daemon's in-flight counter to hit zero.
func (ch *chaos) awaitQuiesce(d *daemon) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, stats, err := netconn.Probe(d.addr, netconn.Options{})
		if err == nil && stats.InFlight == 0 {
			if stats.HeapInuse > 1<<30 {
				ch.violate("%s heap-in-use %d after soak (> 1GiB)", d.name, stats.HeapInuse)
			}
			return
		}
		if time.Now().After(deadline) {
			ch.violate("%s did not quiesce: stats %+v, err %v", d.name, stats, err)
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// loadWorker drives the fixed query set through the router,
// classifying every reply: byte-correct, explicitly partial,
// explicitly shed/errored — a complete-looking wrong answer is the
// one outcome that fails the soak.
func (ch *chaos) loadWorker(ctx context.Context, routerAddr string, rng *rand.Rand) {
	cl, err := netconn.DialRouter(routerAddr, netconn.Options{WaitReady: 20 * time.Second})
	if err != nil {
		ch.violate("load worker could not reach router: %v", err)
		return
	}
	defer cl.Close()
	for ctx.Err() == nil {
		qi := rng.Intn(len(ch.queries))
		res, err := cl.Query(ch.queries[qi])
		switch {
		case err != nil && netconn.IsOverload(err):
			ch.shed.Add(1)
		case err != nil:
			// Explicit errors (conn loss to a restarting router leg,
			// decode failure surfaced as error) are tolerated — they are
			// never silent.
			ch.errored.Add(1)
			vlog("worker error on q%d: %v", qi, err)
		case res.Stats.Partial:
			ch.partial.Add(1)
		case len(res.Docs) != ch.expect[qi].count || digestDocs(res) != ch.expect[qi].digest:
			ch.violate("q%d replied complete but wrong: %d docs (want %d), digest mismatch",
				qi, len(res.Docs), ch.expect[qi].count)
		default:
			ch.ok.Add(1)
		}
		time.Sleep(time.Duration(rng.Intn(10)) * time.Millisecond)
	}
}

// runCycle is one chaos round: arm a link fault, kill (or drain) a
// victim daemon, restart it, verify recovery, fire an overload burst,
// and require full byte-correct reconvergence before the next round.
func (ch *chaos) runCycle(cycle int) {
	victim := ch.rng.Intn(len(ch.daemons))
	d := ch.daemons[victim]
	proxy := ch.proxies[victim]
	graceful := ch.rng.Intn(2) == 0

	// Link fault on the victim's path while it is being cycled.
	switch ch.rng.Intn(3) {
	case 0:
		proxy.SetLatency(time.Duration(5+ch.rng.Intn(15)) * time.Millisecond)
	case 1:
		proxy.CutAfter(int64(ch.rng.Intn(4096)))
	case 2:
		proxy.DropConns()
	}

	sig, sigName := syscall.SIGKILL, "SIGKILL"
	if graceful {
		sig, sigName = syscall.SIGTERM, "SIGTERM"
	}
	vlog("cycle %d: %s %s, fault armed", cycle, sigName, d.name)
	if err := d.stop(sig, ch.drain+5*time.Second); err != nil {
		ch.violate("cycle %d: %s: %v", cycle, d.name, err)
	} else if graceful && !d.exitedClean() {
		ch.violate("cycle %d: %s exited dirty on SIGTERM", cycle, d.name)
	}

	if err := d.start(); err != nil {
		ch.violate("cycle %d: restart %s: %v", cycle, d.name, err)
		return
	}
	proxy.SetLatency(0)
	proxy.CutAfter(-1)
	if err := ch.awaitReady(d); err != nil {
		ch.violate("cycle %d: %v", cycle, err)
		return
	}

	ch.overloadBurst(cycle, ch.daemons[ch.rng.Intn(len(ch.daemons))])
	ch.reconverge(cycle)
}

// overloadBurst fires burst x max-inflight concurrent queries
// straight at one shard daemon: admitted requests must answer within
// a bounded latency, the rest must shed with structured transient
// overload errors carrying retry hints.
func (ch *chaos) overloadBurst(cycle int, d *daemon) {
	rc, err := netconn.Connect([]string{d.addr}, netconn.Options{WaitReady: 10 * time.Second})
	if err != nil {
		ch.violate("cycle %d: burst connect %s: %v", cycle, d.name, err)
		return
	}
	defer rc.Close()
	served := rc.Shards()
	if len(served) == 0 {
		ch.violate("cycle %d: %s serves no shards", cycle, d.name)
		return
	}
	full := ch.queries[0]
	f, _, _ := ch.ref.Filter(full)
	shardsByID := ch.ref.Cluster().Shards()

	n := ch.burst * ch.maxInflight
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sh := shardsByID[served[i%len(served)]]
		wg.Add(1)
		go func(sh *sharding.Shard) {
			defer wg.Done()
			start := time.Now()
			_, err := rc.Query(context.Background(), sh, f, nil, query.Opts{})
			elapsed := time.Since(start)
			if err == nil {
				ch.burstAdmitted.Add(1)
				for {
					prev := ch.burstMaxNS.Load()
					if int64(elapsed) <= prev || ch.burstMaxNS.CompareAndSwap(prev, int64(elapsed)) {
						break
					}
				}
				if elapsed > 5*time.Second {
					ch.violate("cycle %d: admitted burst query took %v", cycle, elapsed)
				}
				return
			}
			var se *sharding.ShardError
			if errors.As(err, &se) && se.Transient && se.RetryAfter > 0 {
				ch.burstShed.Add(1)
				return
			}
			ch.violate("cycle %d: burst got a non-overload failure: %v", cycle, err)
		}(sh)
	}
	wg.Wait()
	if ch.burstAdmitted.Load() == 0 {
		ch.violate("cycle %d: burst admitted nothing — server wedged, not overloaded", cycle)
	}
}

// reconverge requires one fully byte-correct, non-partial pass over
// the whole query set through the router — the breaker cooldown is
// 250ms, so a freshly restarted shard is back in the merge within a
// few retries.
func (ch *chaos) reconverge(cycle int) {
	cl, err := netconn.DialRouter(ch.router.addr, netconn.Options{WaitReady: 10 * time.Second})
	if err != nil {
		ch.violate("cycle %d: reconverge dial: %v", cycle, err)
		return
	}
	defer cl.Close()
	deadline := time.Now().Add(15 * time.Second)
	for attempt := 0; ; attempt++ {
		clean := true
		for qi, q := range ch.queries {
			res, err := cl.Query(q)
			if err != nil || res.Stats.Partial {
				clean = false
				break
			}
			if len(res.Docs) != ch.expect[qi].count || digestDocs(res) != ch.expect[qi].digest {
				ch.violate("cycle %d: post-recovery q%d complete but wrong", cycle, qi)
				return
			}
		}
		if clean {
			vlog("cycle %d: reconverged after %d sweeps", cycle, attempt+1)
			return
		}
		if time.Now().After(deadline) {
			ch.violate("cycle %d: cluster failed to reconverge within 15s", cycle)
			return
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// daemon is one managed child process.
type daemon struct {
	name string
	bin  string
	args []string
	addr string
	cmd  *exec.Cmd
	err  error // Wait result of the last stop
}

func (d *daemon) start() error {
	cmd := exec.Command(d.bin, d.args...)
	if verbose {
		cmd.Stderr = os.Stderr
	} else {
		cmd.Stderr = io.Discard
	}
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		return err
	}
	d.cmd = cmd
	return nil
}

// stop signals the daemon and waits up to the timeout for it to exit;
// a daemon that outlives the timeout is killed and reported.
func (d *daemon) stop(sig syscall.Signal, timeout time.Duration) error {
	if d.cmd == nil || d.cmd.Process == nil {
		return fmt.Errorf("not running")
	}
	if err := d.cmd.Process.Signal(sig); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		d.err = err
		return nil
	case <-time.After(timeout):
		_ = d.cmd.Process.Kill()
		<-done
		d.err = fmt.Errorf("killed after outliving %v", timeout)
		return fmt.Errorf("did not exit within %v of %v", timeout, sig)
	}
}

// exitedClean reports whether the last stop ended with exit code 0.
func (d *daemon) exitedClean() bool { return d.err == nil }

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "stchaos: "+format+"\n", args...)
	os.Exit(1)
}
