package main

// The six workloads. Each one builds its inputs and stores from the
// seed, verifies a first pass against the oracle, measures a timed
// window with tracing off, and can replay a sample through the layers.

import (
	"context"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/netconn"
	"repro/internal/query"
	"repro/internal/wal"
)

// workload is one named traffic mix.
type workload interface {
	// build generates the inputs, loads the stores and starts the
	// servers. An untraced run builds setupRepeats times, closing in
	// between, and reports the median.
	build(b *bench) error
	// verify computes the oracle's expectations — returning how long
	// that took, which set-up time excludes — and runs the first pass
	// that holds every distinct query to them.
	verify(b *bench) (time.Duration, error)
	// measure warms up, runs the timed window with tracing off, and
	// makes the end-of-run checks.
	measure(b *bench) error
	// replay walks a fixed sample of the workload stage by stage
	// through the layers' public functions, single-threaded.
	replay(b *bench, t *tracer) error
	// inputs fingerprints the generated inputs; valid after build.
	inputs() map[string]string
	// close stops every server and store and removes temporary files.
	close()
}

// workloadNames lists the workloads in the order of BENCHMARK.json.
var workloadNames = []string{"point-local", "scan-local", "range-net", "mixed-rw", "ingest", "dashboard"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "point-local":
		return &localWorkload{}, nil
	case "scan-local":
		return &localWorkload{scan: true}, nil
	case "range-net":
		return &netWorkload{}, nil
	case "mixed-rw":
		return &mixedWorkload{}, nil
	case "ingest":
		return &ingestWorkload{}, nil
	case "dashboard":
		return &dashWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// cycle is the distinct query client c sends as its i-th operation:
// clients start at evenly spaced offsets and walk the list in order.
func cycle(c, i, clients, n int) int { return (c*n/clients + i) % n }

// --- point-local and scan-local ---------------------------------------

// localWorkload is two closed-loop clients calling core.Store.Query
// in process: the point stream, where per-query fixed cost dominates,
// or the scan stream, where index scan, fetch, refine and merge do.
type localWorkload struct {
	scan  bool
	recs  []core.Record
	store *core.Store
	qs    []core.STQuery
	want  []expectation
}

const localClients = 2

func (w *localWorkload) build(b *bench) error {
	w.recs = genRecords(b.cfg.seed, baseRecords)
	var err error
	if w.store, err = openLoaded(storeConfig(), w.recs); err != nil {
		return err
	}
	if w.scan {
		w.qs = genScanQueries(b.cfg.seed, w.recs, scanQueries, true)
	} else {
		w.qs = genPointQueries(b.cfg.seed, w.recs, pointQueries)
	}
	return nil
}

func (w *localWorkload) inputs() map[string]string {
	return summarize(len(w.recs), recordsDigest(w.recs), w.qs)
}

func (w *localWorkload) verify(b *bench) (time.Duration, error) {
	start := time.Now()
	w.want = newOracle(w.recs).expectAll(w.qs)
	w.recs = nil // the store holds its own copy; free ours before heap_mb
	oracle := time.Since(start)
	return oracle, firstPass(w.qs, w.want, func(q core.STQuery) (*core.QueryResult, error) {
		return w.store.Query(q), nil
	})
}

func (w *localWorkload) measure(b *bench) error {
	if err := requireClients(localClients); err != nil {
		return err
	}
	op := func(c, i int) (uint8, bool) {
		idx := cycle(c, i, localClients, len(w.qs))
		res := w.store.Query(w.qs[idx])
		tag := uint8(classFull)
		if w.scan {
			tag = uint8(classOf(idx))
		}
		return tag, queryOK(res, nil, w.want[idx])
	}
	runClosed(localClients, warmupTime, 0, op)
	planBefore := planCache(w.store)
	var r loopResult
	b.measured(func() []loopResult {
		r = runClosed(localClients, b.cfg.window(1), 0, op)
		return []loopResult{r}
	})
	b.count(r)
	b.queryMetrics(r)
	b.lay("query.plancache_hit_ratio", planCache(w.store).ratioSince(planBefore), "ratio")
	if w.scan {
		for _, c := range []queryClass{classFull, classLimit, classTopK} {
			b.lay("class."+c.String()+".p50_ms", r.byTag(uint8(c)).ms(50), "ms")
		}
	}
	resultCacheRatio(b, w.store)
	return nil
}

func (w *localWorkload) replay(b *bench, t *tracer) error {
	w.store.SetParallel(1)
	rp := readReplay{store: w.store, exec: w.store.Cluster().Shards()}
	rp.run(b, t, w.qs)
	liveIndexMetrics(b, w.store)
	return nil
}

func (w *localWorkload) close() {
	if w.store != nil {
		_ = w.store.Close() // in-memory: nothing to flush
		w.store = nil
	}
}

// counters is a hit/miss pair read at one instant.
type counters struct{ hits, misses int64 }

func planCache(s *core.Store) counters {
	h, m := s.Cluster().PlanCacheStats()
	return counters{h, m}
}

// ratioSince is the hit ratio of the lookups made since before.
func (c counters) ratioSince(before counters) float64 {
	h, m := c.hits-before.hits, c.misses-before.misses
	return ratio(float64(h), float64(h+m))
}

// resultCacheRatio reports the router result cache's lifetime hit
// ratio: 0 on every workload that runs cache-off.
func resultCacheRatio(b *bench, s *core.Store) {
	h, m := s.Cluster().ResultCacheStats()
	b.lay("sharding.cache_hit_ratio", ratio(float64(h), float64(h+m)), "ratio")
}

// --- range-net ---------------------------------------------------------

// netWorkload sends the mixed stream open-loop through the whole
// network path on loopback: router client → RouterServer → RemoteConn
// → two ShardServers over a second, identically built backend store.
type netWorkload struct {
	recs    []core.Record
	router  *core.Store
	backend *core.Store
	servers []*netconn.ShardServer
	addrs   []string
	remote  *netconn.RemoteConn
	front   *netconn.RouterServer
	addr    string
	clients []*netconn.Client
	qs      []core.STQuery
	want    []expectation
}

const (
	netSenders     = 2
	netPoints      = 1024
	netScans       = 256
	netReferenceHz = 300
)

// netSteps are the open-loop rate steps and each one's share of the
// measuring time; the reference step gets enough of it for ≥ 2000
// samples behind its p99.
var netSteps = []struct {
	rate  float64
	share float64
}{{150, 0.12}, {netReferenceHz, 0.68}, {600, 0.20}}

func (w *netWorkload) build(b *bench) error {
	w.recs = genRecords(b.cfg.seed, baseRecords)
	// The two stores are built from the same records by the same code,
	// so their chunk maps and fingerprints agree; one loads per core.
	var wg sync.WaitGroup
	var berr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.backend, berr = openLoaded(storeConfig(), w.recs)
	}()
	var err error
	w.router, err = openLoaded(storeConfig(), w.recs)
	wg.Wait()
	if err != nil {
		return err
	}
	if berr != nil {
		return berr
	}
	for half := 0; half < 2; half++ {
		var serve []int
		for id := half; id < shardCount; id += 2 {
			serve = append(serve, id)
		}
		srv, err := netconn.NewShardServer(w.backend.Cluster(), serve, netconn.ServerOptions{})
		if err != nil {
			return err
		}
		w.servers = append(w.servers, srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		w.addrs = append(w.addrs, addr)
	}
	if w.remote, err = netconn.Connect(w.addrs, netconn.Options{}); err != nil {
		return err
	}
	if err := w.remote.Covers(shardCount); err != nil {
		return err
	}
	w.router.Cluster().SetConn(w.remote)
	w.front = netconn.NewRouterServer(w.router, netconn.AdmitOptions{})
	if w.addr, err = w.front.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	for s := 0; s < netSenders; s++ {
		cl, err := netconn.DialRouter(w.addr, netconn.Options{})
		if err != nil {
			return err
		}
		w.clients = append(w.clients, cl)
	}
	w.qs = genMixedQueries(b.cfg.seed, w.recs, netPoints, netScans)
	return nil
}

func (w *netWorkload) inputs() map[string]string {
	return summarize(len(w.recs), recordsDigest(w.recs), w.qs)
}

func (w *netWorkload) verify(b *bench) (time.Duration, error) {
	start := time.Now()
	w.want = newOracle(w.recs).expectAll(w.qs)
	w.recs = nil
	oracle := time.Since(start)
	return oracle, firstPass(w.qs, w.want, w.clients[0].Query)
}

func (w *netWorkload) measure(b *bench) error {
	if err := requireClients(netSenders); err != nil {
		return err
	}
	next := 0 // the stream continues across steps
	step := func(rate float64, dur time.Duration) loopResult {
		base := next
		r := runOpen(netSenders, rate, dur, func(s, k int) (uint8, bool) {
			idx := (base + k) % len(w.qs)
			res, err := w.clients[s].Query(w.qs[idx])
			return 0, queryOK(res, err, w.want[idx])
		})
		next += r.attempted
		return r
	}
	step(netReferenceHz, warmupTime)
	planBefore := planCache(w.backend)
	steps := make([]loopResult, len(netSteps))
	b.measured(func() []loopResult {
		for i, st := range netSteps {
			steps[i] = step(st.rate, b.cfg.window(st.share))
		}
		return steps
	})
	var ref loopResult
	var ok, attempted int
	var elapsed time.Duration
	slo := 0.0
	for i, st := range netSteps {
		r := steps[i]
		b.count(r)
		ok += r.attempted - r.failed
		attempted += r.attempted
		elapsed += r.elapsed
		p99 := r.lat.ms(99)
		if p99 <= sloP99MS && r.failed == 0 && !r.behind {
			slo = max(slo, st.rate)
		}
		if st.rate == netReferenceHz {
			ref = r
		} else {
			b.lay(fmt.Sprintf("rate.%.0f.p99_ms", st.rate), p99, "ms")
		}
	}
	b.setN("query_p50_ms", ref.lat.ms(50), "ms", len(ref.lat))
	b.tail("query_p99_ms", ref.lat)
	b.set("slo_rate_qps", slo, "1/s")
	// An open loop's rate is its schedule's: the primary throughput is
	// what was achieved over all three steps, not a slice median.
	b.primary(ref)
	b.setN("ops_per_s", float64(ok)/elapsed.Seconds(), "1/s", attempted)
	lag := ref.lag.ms(99)
	b.lay("loadgen.sched_lag_p99_ms", lag, "ms")
	b.lay("loadgen.queue_wait_p99_ms", ref.wait.ms(99), "ms")
	if lag > maxLagP99MS {
		b.invalid = append(b.invalid, fmt.Sprintf("generator ran %.2f ms late at p99 on the reference step", lag))
	}
	b.lay("query.plancache_hit_ratio", planCache(w.backend).ratioSince(planBefore), "ratio")
	resultCacheRatio(b, w.router)
	return w.probe(b)
}

// probe reads the servers' own counters after the window: nothing may
// have been shed and no cursor may be left open.
func (w *netWorkload) probe(b *bench) error {
	var handshakes []float64
	var shed, cursors float64
	for _, addr := range append(slices.Clone(w.addrs), w.addr) {
		for i := 0; i < 8; i++ {
			start := time.Now()
			_, st, err := netconn.Probe(addr, netconn.Options{})
			if err != nil {
				return fmt.Errorf("probing %s: %w", addr, err)
			}
			handshakes = append(handshakes, float64(time.Since(start).Nanoseconds())/1e3)
			if i == 0 {
				shed += float64(st.Shed)
				cursors += float64(st.Cursors)
			}
		}
	}
	b.lay("netconn.dial_handshake_us", medianF(handshakes), "us")
	b.lay("netconn.server_shed", shed, "count")
	b.lay("netconn.cursors_open_at_end", cursors, "count")
	if cursors != 0 {
		return fmt.Errorf("%v cursors left open on the shard servers", cursors)
	}
	return nil
}

func (w *netWorkload) replay(b *bench, t *tracer) error {
	w.router.SetParallel(1)
	rp := readReplay{
		store:  w.router,
		exec:   w.backend.Cluster().Shards(),
		client: w.clients[0],
		remote: w.remote,
	}
	rp.run(b, t, w.qs)
	liveIndexMetrics(b, w.backend)
	return nil
}

func (w *netWorkload) close() {
	for _, cl := range w.clients {
		cl.Close()
	}
	if w.front != nil {
		w.front.Close()
	}
	if w.router != nil {
		w.router.Cluster().SetConn(nil)
	}
	if w.remote != nil {
		w.remote.Close()
	}
	for _, srv := range w.servers {
		srv.Close()
	}
	for _, s := range []*core.Store{w.router, w.backend} {
		if s != nil {
			_ = s.Close() // in-memory: nothing to flush
		}
	}
	*w = netWorkload{}
}

// --- durable stores ----------------------------------------------------

// countingFS counts the journal's writes and fsyncs without changing
// them: wal.FaultFS with no fault armed and a hook that only counts.
type countingFS struct {
	fs *wal.FaultFS
	mu sync.Mutex
	n  map[wal.Op]int
}

func newCountingFS(dir string) *countingFS {
	c := &countingFS{fs: wal.NewFaultFS(wal.NewOSFS(dir)), n: map[wal.Op]int{}}
	c.fs.Before(func(op wal.Op, _ string) error {
		c.mu.Lock()
		c.n[op]++
		c.mu.Unlock()
		return nil
	})
	return c
}

func (c *countingFS) count(op wal.Op) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return float64(c.n[op])
}

// durable is a store journaled under a temporary directory.
type durable struct {
	dir   string
	store *core.Store
	fs    *countingFS // only on traced runs
}

// openDurable creates an empty durable store with the default
// wal.SyncBatch policy. A traced run counts its journal operations.
func openDurable(b *bench) (*durable, error) {
	dir, err := b.tempDir("store-")
	if err != nil {
		return nil, err
	}
	d := &durable{dir: dir}
	cfg := storeConfig()
	cfg.Dir = dir
	if b.cfg.trace {
		d.fs = newCountingFS(dir)
		cfg.FS = d.fs.fs
	}
	if d.store, err = core.Open(cfg); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return d, nil
}

// reopen closes the store and recovers it from its directory alone,
// requiring the recovered contents to equal what was there at the
// close and docs to equal wantDocs. It returns the recovery time.
func (d *durable) reopen(wantDocs int) (time.Duration, error) {
	docs, sum := d.store.Fingerprint()
	if docs != wantDocs {
		return 0, fmt.Errorf("store holds %d documents, %d were acknowledged", docs, wantDocs)
	}
	err := d.store.Close()
	d.store = nil
	if err != nil {
		return 0, fmt.Errorf("closing the store: %w", err)
	}
	start := time.Now()
	s, err := core.OpenDir(d.dir, core.Config{})
	if err != nil {
		return 0, fmt.Errorf("recovering the store: %w", err)
	}
	d.store = s
	rdocs, rsum := s.Fingerprint()
	took := time.Since(start)
	if rdocs != docs || rsum != sum {
		return took, fmt.Errorf("recovered (%d docs, %016x), closed with (%d docs, %016x)", rdocs, rsum, docs, sum)
	}
	return took, nil
}

func (d *durable) close() {
	if d == nil {
		return
	}
	if d.store != nil {
		_ = d.store.Close() // the run is over; the directory goes next
	}
	os.RemoveAll(d.dir)
}

// ingestMetrics reports the write path's layer counters after the
// timed window, given the chunk count before it.
func (d *durable) ingestMetrics(b *bench, chunksBefore int) {
	st := d.store.IngestStats()
	b.lay("sharding.ingest_group_size", ratio(float64(st.Batches), float64(st.Commits)), "ratio")
	b.lay("sharding.ingest_sheds", float64(st.Sheds), "count")
	b.lay("sharding.chunks_split", float64(len(d.store.Cluster().Chunks())-chunksBefore), "count")
	start := time.Now()
	d.store.Cluster().Balance()
	b.lay("sharding.balance_ms", float64(time.Since(start).Nanoseconds())/1e6, "ms")
	if d.fs != nil {
		b.lay("wal.writes_per_batch", ratio(d.fs.count(wal.OpWrite), float64(st.Batches)), "ratio")
		b.lay("wal.fsyncs_per_batch", ratio(d.fs.count(wal.OpSync), float64(st.Batches)), "ratio")
	}
}

// insertOp returns the operation that writes batch k of recs through
// Store.InsertRecords under the idempotent batch ID <stream><k>; two
// streams into one store need different names, or the store's dedup
// window answers the second one's batches as duplicates.
func insertOp(s *core.Store, stream string, recs []core.Record, size int) opFunc {
	return func(_, k int) (uint8, bool) {
		batch := recs[k*size : (k+1)*size]
		applied, dup, err := s.InsertRecords(context.Background(), fmt.Sprintf("%s%07d", stream, k), batch)
		return 0, err == nil && !dup && applied == size
	}
}

// --- mixed-rw ----------------------------------------------------------

// mixedWorkload runs one closed-loop reader beside one open-loop
// writer on the same durable store: reads share the cluster lock,
// every batch, split and move takes it exclusively.
type mixedWorkload struct {
	seen  []obs         // every generated record as the oracle sees it
	tail  []core.Record // what the writer and the write replay consume
	d     *durable
	qs    []core.STQuery
	lower []expectation // over the preloaded records
	upper []expectation // over everything the writer may have written
}

const (
	mixedPoints    = 512
	mixedScans     = 128
	mixedBatchDocs = 32
	mixedBatchHz   = 250 // × 32 docs = 8000 docs/s
	preloadBatch   = 256
	aloneShare     = 0.2 // of the measuring time: the reader-alone phase
)

func (w *mixedWorkload) build(b *bench) error {
	// One time-ordered data set: the first N records are preloaded, the
	// writer's schedule and the write replay consume the rest.
	recs := genRecords(b.cfg.seed, baseRecords+w.scheduled(b)+traceBatches*mixedBatchDocs)
	var err error
	if w.d, err = openDurable(b); err != nil {
		return err
	}
	// Keep only what later phases read, so heap_mb is the store's heap
	// plus the writer's pending input and not a second copy of the data.
	w.seen = observe(recs)
	pre := recs[:baseRecords]
	w.tail = slices.Clone(recs[baseRecords:])
	load := insertOp(w.d.store, "preload", pre, preloadBatch)
	for k := 0; k < len(pre)/preloadBatch; k++ {
		if _, ok := load(0, k); !ok {
			return fmt.Errorf("preload batch %d was not applied", k)
		}
	}
	if rest := pre[len(pre)/preloadBatch*preloadBatch:]; len(rest) > 0 {
		if _, _, err := w.d.store.InsertRecords(context.Background(), "rest", rest); err != nil {
			return err
		}
	}
	w.qs = genMixedQueries(b.cfg.seed, pre, mixedPoints, mixedScans)
	return nil
}

// scheduled is how many records the writer's whole schedule covers.
func (w *mixedWorkload) scheduled(b *bench) int {
	return int(mixedBatchHz*b.cfg.window(1-aloneShare).Seconds()) * mixedBatchDocs
}

func (w *mixedWorkload) inputs() map[string]string {
	var digest uint64
	for _, o := range w.seen {
		digest += pointHash(o.lon, o.lat, o.ms)
	}
	return summarize(len(w.seen), digest, w.qs)
}

func (w *mixedWorkload) verify(b *bench) (time.Duration, error) {
	start := time.Now()
	w.lower = oracleOf(w.seen[:baseRecords]).expectAll(w.qs)
	w.upper = oracleOf(w.seen[:baseRecords+w.scheduled(b)]).expectAll(w.qs)
	oracle := time.Since(start)
	return oracle, firstPass(w.qs, w.lower, func(q core.STQuery) (*core.QueryResult, error) {
		return w.d.store.Query(q), nil
	})
}

func (w *mixedWorkload) measure(b *bench) error {
	if err := requireClients(2); err != nil {
		return err
	}
	s := w.d.store
	read := func(_, i int) (uint8, bool) {
		idx := i % len(w.qs)
		res := s.Query(w.qs[idx])
		n := len(res.Docs)
		return 0, !res.Stats.Partial && n >= w.lower[idx].returned && n <= w.upper[idx].returned
	}
	write := insertOp(s, "write", w.tail, mixedBatchDocs)
	runClosed(1, warmupTime, 0, read)

	alone := runClosed(1, b.cfg.window(aloneShare), 0, read)
	b.phases = append(b.phases, phase{"reader-alone", alone.elapsed.Seconds()})
	b.count(alone)

	chunks := len(s.Cluster().Chunks())
	planBefore := planCache(s)
	mixed := b.cfg.window(1 - aloneShare)
	var reads, writes loopResult
	b.measured(func() []loopResult {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			writes = runOpen(1, mixedBatchHz, mixed, write)
		}()
		reads = runClosed(1, mixed, 0, read)
		wg.Wait()
		return []loopResult{reads, writes}
	})
	b.count(reads)
	b.count(writes)
	b.queryMetrics(reads)
	b.setN("ingest_ack_p50_ms", writes.lat.ms(50), "ms", len(writes.lat))
	b.tail("ingest_ack_p99_ms", writes.lat)
	b.lay("sharding.rw_interference", ratio(reads.lat.ms(50), alone.lat.ms(50)), "ratio")
	lag := writes.lag.ms(99)
	b.lay("loadgen.sched_lag_p99_ms", lag, "ms")
	b.lay("loadgen.queue_wait_p99_ms", writes.wait.ms(99), "ms")
	if lag > maxLagP99MS {
		b.invalid = append(b.invalid, fmt.Sprintf("writer ran %.2f ms late at p99", lag))
	}
	b.lay("query.plancache_hit_ratio", planCache(s).ratioSince(planBefore), "ratio")
	resultCacheRatio(b, s)
	w.d.ingestMetrics(b, chunks)

	// The writer has quiesced: reads are now held to the exact answer
	// over everything acknowledged.
	acked := (writes.attempted - writes.failed) * mixedBatchDocs
	if writes.failed == 0 {
		exact := oracleOf(w.seen[:baseRecords+acked]).expectAll(w.qs)
		for i, q := range w.qs {
			if err := verifyDocs(q, s.Query(q).Docs, exact[i]); err != nil {
				b.failed++
				b.mistake("after the writer quiesced, query %d: %v", i, err)
			}
		}
	}
	_, err := w.d.reopen(baseRecords + acked)
	return err
}

func (w *mixedWorkload) replay(b *bench, t *tracer) error {
	w.d.store.SetParallel(1)
	rp := readReplay{store: w.d.store, exec: w.d.store.Cluster().Shards()}
	rp.run(b, t, w.qs)
	liveIndexMetrics(b, w.d.store)
	return writeReplay(b, t, w.tail[w.scheduled(b):], mixedBatchDocs)
}

func (w *mixedWorkload) close() {
	w.d.close()
	*w = mixedWorkload{}
}

// --- ingest ------------------------------------------------------------

// ingestWorkload fills an empty durable store from two closed-loop
// writers, then closes it and recovers it from its directory: write
// capacity, group commit, journal volume and recovery with no reader
// in the way.
type ingestWorkload struct {
	recs []core.Record
	d    *durable
}

// ingestReplayDocs is the tail of the data set kept for the write
// replay; the timed window never reaches it.
const ingestReplayDocs = traceBatches * ingestBatchDocs

const (
	ingestWriters   = 2
	ingestBatchDocs = 64
	// ingestDocsPerSecond sizes the run's fixed work: the writers drain
	// this many documents per second of measuring time, however long it
	// takes (about half the time at the baseline's ≈ 50 k docs/s, the
	// rest going to the close and the recovery the run also times). The
	// work is fixed, not the time, so that heap, disk and recovery
	// figures describe the same store on every commit.
	ingestDocsPerSecond = 24000
)

// docs is the number of documents the run ingests.
func (w *ingestWorkload) docs(b *bench) int {
	return int(b.cfg.seconds*ingestDocsPerSecond) / (ingestWriters * ingestBatchDocs) * (ingestWriters * ingestBatchDocs)
}

func (w *ingestWorkload) build(b *bench) error {
	w.recs = genRecords(b.cfg.seed, w.docs(b)+ingestReplayDocs)
	var err error
	w.d, err = openDurable(b)
	return err
}

func (w *ingestWorkload) inputs() map[string]string {
	return summarize(len(w.recs), recordsDigest(w.recs), nil)
}

// verify has no first pass: the store is empty until the timed window.
func (w *ingestWorkload) verify(*bench) (time.Duration, error) { return 0, nil }

func (w *ingestWorkload) measure(b *bench) error {
	if err := requireClients(ingestWriters); err != nil {
		return err
	}
	s := w.d.store
	insert := insertOp(s, "ingest", w.recs, ingestBatchDocs)
	batches := w.docs(b) / ingestBatchDocs
	chunks := len(s.Cluster().Chunks())
	var r loopResult
	b.measured(func() []loopResult {
		// Writer c takes batches c, c+2, … until the data set is drained;
		// the time limit only stops a store that has stopped accepting.
		r = runClosed(ingestWriters, 150*time.Second, batches/ingestWriters, func(c, i int) (uint8, bool) {
			return insert(c, i*ingestWriters+c)
		})
		return []loopResult{r}
	})
	b.count(r)
	if r.attempted < batches {
		return fmt.Errorf("ingest stalled: %d of %d batches written", r.attempted, batches)
	}
	acked := (r.attempted - r.failed) * ingestBatchDocs
	docsPerS := float64(acked) / r.elapsed.Seconds()
	b.setN("ingest_docs_per_s", docsPerS, "1/s", acked)
	b.setN("ingest_ack_p50_ms", r.lat.ms(50), "ms", len(r.lat))
	b.tail("ingest_ack_p99_ms", r.lat)
	b.primary(r)
	b.setN("ops_per_s", b.e2e["ops_per_s"].Value*ingestBatchDocs, "1/s", sliceCount(len(r.lat)))
	// Drop the consumed input first: heap_mb is the filled store's heap.
	w.recs = slices.Clone(w.recs[len(w.recs)-ingestReplayDocs:])
	b.set("heap_mb", heapMB(), "MiB")
	w.d.ingestMetrics(b, chunks)

	recovery, err := w.d.reopen(acked)
	if err != nil {
		return err
	}
	b.set("recovery_s", recovery.Seconds(), "s")
	b.phases = append(b.phases, phase{"recovery", recovery.Seconds()})
	onDisk, err := dirBytes(w.d.dir)
	if err != nil {
		return err
	}
	user := float64(w.d.store.Cluster().ClusterStats().DataBytes)
	b.set("disk_amp", ratio(float64(onDisk), user), "ratio")
	b.lay("wal.bytes_per_doc", ratio(float64(onDisk), float64(acked)), "B")
	b.lay("wal.replay_docs_per_s", ratio(float64(acked), recovery.Seconds()), "1/s")
	resultCacheRatio(b, w.d.store)
	return nil
}

func (w *ingestWorkload) replay(b *bench, t *tracer) error {
	liveIndexMetrics(b, w.d.store)
	return writeReplay(b, t, w.recs, ingestBatchDocs)
}

func (w *ingestWorkload) close() {
	w.d.close()
	*w = ingestWorkload{}
}

// --- dashboard ---------------------------------------------------------

// dashWorkload is two closed-loop clients asking for pushed-down
// aggregates with Zipf popularity over a working set larger than the
// router's result cache — the only workload with the cache on.
type dashWorkload struct {
	recs  []core.Record
	store *core.Store
	qs    []core.STQuery
	want  []*query.AggResult
	order [dashClients][]int32
}

const (
	dashClients = 2
	// dashCacheBytes is sized so that the Zipf stream's hit ratio lands
	// inside 0.5–0.95: the cache must be on the hot path without
	// holding the whole working set.
	dashCacheBytes = 512 << 10
	dashOrderLen   = 1 << 16
	tagHit         = 1
)

func (w *dashWorkload) build(b *bench) error {
	w.recs = genRecords(b.cfg.seed, baseRecords)
	cfg := storeConfig()
	cfg.ResultCacheBytes = dashCacheBytes
	var err error
	if w.store, err = openLoaded(cfg, w.recs); err != nil {
		return err
	}
	w.qs = genDashQueries(b.cfg.seed, w.recs, dashQueries)
	for c := range w.order {
		w.order[c] = zipfOrder(b.cfg.seed, fmt.Sprintf("zipf%d", c), len(w.qs), dashOrderLen)
	}
	return nil
}

// aggSpec is the executor's form of the query's aggregate.
func aggSpec(s *core.Store, q core.STQuery) query.AggSpec {
	switch {
	case q.Count:
		return query.AggSpec{Kind: query.AggCount}
	case q.Distinct != "":
		return query.AggSpec{Kind: query.AggDistinct, Field: q.Distinct}
	}
	order := int(s.Grid().Curve().Order())
	return query.AggSpec{Kind: query.AggCellHist, Field: core.FieldHilbert, Shift: uint8(2 * (order - q.HeatmapBits))}
}

func (w *dashWorkload) inputs() map[string]string {
	return summarize(len(w.recs), recordsDigest(w.recs), w.qs)
}

// verify holds each query's documents to the oracle, derives the
// expected aggregate from those verified documents, and requires the
// pushed-down aggregate to equal it.
func (w *dashWorkload) verify(b *bench) (time.Duration, error) {
	start := time.Now()
	expect := newOracle(w.recs).expectAll(w.qs)
	w.recs = nil
	oracle := time.Since(start)
	w.want = make([]*query.AggResult, len(w.qs))
	for i, q := range w.qs {
		plain := core.STQuery{Rect: q.Rect, From: q.From, To: q.To}
		docs := w.store.Query(plain).Docs
		if err := verifyDocs(plain, docs, expect[i]); err != nil {
			return oracle, fmt.Errorf("first pass, query %d: %w", i, err)
		}
		w.want[i] = query.AggregateDocs(docs, aggSpec(w.store, q))
		res, err := w.store.Aggregate(q)
		if err != nil {
			return oracle, fmt.Errorf("first pass, aggregate %d: %w", i, err)
		}
		if res.Stats.Partial || !res.Agg.Equal(w.want[i]) {
			return oracle, fmt.Errorf("first pass, aggregate %d differs from the aggregate of its documents", i)
		}
	}
	return oracle, nil
}

func (w *dashWorkload) measure(b *bench) error {
	if err := requireClients(dashClients); err != nil {
		return err
	}
	op := func(c, i int) (uint8, bool) {
		idx := w.order[c][i%dashOrderLen]
		res, err := w.store.Aggregate(w.qs[idx])
		if err != nil || res.Stats.Partial || res.Agg == nil {
			return 0, false
		}
		var tag uint8
		if res.Stats.CacheHit {
			tag = tagHit
		}
		return tag, res.Agg.Count == w.want[idx].Count
	}
	runClosed(dashClients, warmupTime, 0, op)
	hits, misses := w.store.Cluster().ResultCacheStats()
	planBefore := planCache(w.store)
	var r loopResult
	b.measured(func() []loopResult {
		r = runClosed(dashClients, b.cfg.window(1), 0, op)
		return []loopResult{r}
	})
	b.count(r)
	b.queryMetrics(r)
	b.lay("query.plancache_hit_ratio", planCache(w.store).ratioSince(planBefore), "ratio")
	hitRatio := ratio(float64(len(r.byTag(tagHit))), float64(len(r.lat)))
	b.lay("sharding.cache_hit_ratio", hitRatio, "ratio")
	h2, m2 := w.store.Cluster().ResultCacheStats()
	if counted := ratio(float64(h2-hits), float64(h2-hits+m2-misses)); counted < hitRatio-0.01 || counted > hitRatio+0.01 {
		return fmt.Errorf("clients saw a cache hit ratio of %.3f, the cache counted %.3f", hitRatio, counted)
	}
	return nil
}

func (w *dashWorkload) replay(b *bench, t *tracer) error {
	w.store.SetParallel(1)
	rp := readReplay{store: w.store, exec: w.store.Cluster().Shards(), agg: true}
	rp.run(b, t, w.qs)
	liveIndexMetrics(b, w.store)
	return nil
}

func (w *dashWorkload) close() {
	if w.store != nil {
		_ = w.store.Close() // in-memory: nothing to flush
		w.store = nil
	}
}
