// Command stload generates the evaluation data sets to CSV, loads a
// CSV into a store and reports the resulting cluster statistics (the
// Table 6 / data-loading workflow of the paper's appendix), or — with
// -follow — streams a continuous ingest workload into a running
// strouterd deployment.
//
// Usage:
//
//	stload -gen real -records 40000 -out r.csv
//	stload -gen synthetic -records 80000 -out s.csv
//	stload -load r.csv -approach hil -shards 12
//	stload -load r.csv -approach hil -dir ./store   # persist: journal + checkpoint
//	stload -follow -router 127.0.0.1:7700 -approach bslTS -records 40000 \
//	       -workers 4 -batch 64 -duration 30s       # continuous wire ingest
//
// With -dir the store is durable: writes are journaled under the
// directory and a checkpoint snapshot is taken after the load, so
// `stquery -dir` (or a later `stload -load -dir`) reopens it without
// re-ingesting.
//
// -follow encodes records exactly like the store would (same approach,
// same document shape) and ships them as idempotent batches over the
// wire: every batch carries a client-assigned ID, overload sheds are
// retried after the server's hint, and an ack is only counted once the
// whole deployment applied the batch. The flags mirror the paper's
// load-through-the-router procedure, running forever-shaped instead of
// load-then-stop.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bson"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geo"
	"repro/internal/netconn"
)

func main() {
	var (
		gen      = flag.String("gen", "", "generate a data set: 'real' or 'synthetic'")
		out      = flag.String("out", "", "output CSV path for -gen")
		load     = flag.String("load", "", "CSV file to load into a store")
		approach = flag.String("approach", "hil", "bslST | bslTS | hil | hil* | sthash")
		records  = flag.Int("records", 40000, "records to generate")
		shards   = flag.Int("shards", 12, "shards for -load")
		zones    = flag.Bool("zones", false, "configure zones after loading")
		dir      = flag.String("dir", "", "durable store directory (journal + checkpoint)")

		follow     = flag.Bool("follow", false, "continuous ingest: stream batches to a strouterd deployment until -duration elapses or SIGINT")
		router     = flag.String("router", "127.0.0.1:7700", "strouterd address for -follow")
		workers    = flag.Int("workers", 4, "concurrent ingest workers for -follow")
		batchSize  = flag.Int("batch", 64, "documents per ingest batch for -follow")
		rate       = flag.Int("rate", 0, "target documents/second across all workers (0 = unthrottled)")
		duration   = flag.Duration("duration", 0, "stop -follow after this long (0 = until SIGINT)")
		seed       = flag.Uint64("seed", 1, "base id-generation seed for -follow workers")
		authSecret = flag.String("auth-secret", "", "shared secret for the handshake HMAC challenge")
	)
	flag.Parse()

	if *follow {
		runFollow(followConfig{
			router:     *router,
			approach:   *approach,
			records:    *records,
			shards:     *shards,
			workers:    *workers,
			batch:      *batchSize,
			rate:       *rate,
			duration:   *duration,
			seed:       *seed,
			authSecret: *authSecret,
		})
		return
	}

	switch {
	case *gen != "":
		if *out == "" {
			fatal("stload: -gen requires -out")
		}
		var recs []core.Record
		switch *gen {
		case "real":
			recs = data.GenerateReal(data.RealConfig{Records: *records})
		case "synthetic":
			recs = data.GenerateSynthetic(data.SyntheticConfig{Records: *records})
		default:
			fatal("stload: unknown generator %q", *gen)
		}
		f, err := os.Create(*out)
		if err != nil {
			fatal("stload: %v", err)
		}
		defer f.Close()
		if err := data.WriteCSV(f, recs); err != nil {
			fatal("stload: writing CSV: %v", err)
		}
		fmt.Printf("wrote %d records to %s\n", len(recs), *out)

	case *load != "":
		f, err := os.Open(*load)
		if err != nil {
			fatal("stload: %v", err)
		}
		recs, err := data.ReadCSV(f)
		f.Close()
		if err != nil {
			fatal("stload: reading CSV: %v", err)
		}
		a, ok := core.ParseApproach(*approach)
		if !ok {
			fatal("stload: unknown approach %q", *approach)
		}
		s, err := core.Open(core.Config{
			Approach:   a,
			Shards:     *shards,
			DataExtent: data.MBROf(recs),
			Dir:        *dir,
		})
		if err != nil {
			fatal("stload: %v", err)
		}
		start := time.Now()
		if err := s.Load(recs); err != nil {
			fatal("stload: loading: %v", err)
		}
		if *zones {
			if err := s.ConfigureZones(); err != nil {
				fatal("stload: zones: %v", err)
			}
		}
		if *dir != "" {
			if err := s.Checkpoint(); err != nil {
				fatal("stload: checkpoint: %v", err)
			}
			if err := s.Close(); err != nil {
				fatal("stload: close: %v", err)
			}
			docs, sum := s.Fingerprint()
			fmt.Printf("persisted to %s (lsn %d, fingerprint %d/%016x)\n",
				*dir, s.Cluster().LSN(), docs, sum)
		}
		st := s.Cluster().ClusterStats()
		fmt.Printf("loaded %d documents in %v under %s (%d shards)\n",
			st.Docs, time.Since(start).Round(time.Millisecond), a, st.Shards)
		fmt.Printf("data size: %.2f MB, index size: %.2f MB, chunks: %d (splits %d, migrations %d, jumbo %d)\n",
			float64(st.DataBytes)/(1<<20), float64(st.IndexBytes)/(1<<20),
			st.Chunks, st.Splits, st.Migrations, st.Jumbo)
		for i, ss := range st.PerShard {
			fmt.Printf("  shard%02d: %7d docs %4d chunks %8.2f MB\n",
				i, ss.Docs, ss.Chunks, float64(ss.DataBytes)/(1<<20))
		}

	default:
		flag.Usage()
		os.Exit(2)
	}
}

// followConfig is the -follow mode's knob set.
type followConfig struct {
	router, approach, authSecret string
	records, shards              int
	workers, batch, rate         int
	duration                     time.Duration
	seed                         uint64
}

// followStats aggregates across workers.
type followStats struct {
	batches, docs, dups, sheds, retries atomic.Uint64

	mu        sync.Mutex
	latencies []time.Duration // per-batch ack latency samples
}

func (st *followStats) sample(d time.Duration) {
	st.mu.Lock()
	// Bound the sample memory: past a million acks, keep every other.
	if len(st.latencies) < 1<<20 {
		st.latencies = append(st.latencies, d)
	} else if len(st.latencies)%2 == 0 {
		st.latencies[len(st.latencies)/2] = d
	}
	st.mu.Unlock()
}

// runFollow streams idempotent batches to a strouterd deployment until
// the duration elapses or a signal arrives, then prints the ingest
// summary (rates, shed/retry counts, ack-latency percentiles).
func runFollow(cfg followConfig) {
	a, ok := core.ParseApproach(cfg.approach)
	if !ok {
		fatal("stload: unknown approach %q", cfg.approach)
	}
	var secret []byte
	if cfg.authSecret != "" {
		secret = []byte(cfg.authSecret)
	}
	// The generator slab is the record source; workers walk it
	// cyclically with per-worker id seeds, so the stream is unbounded
	// but deterministic in shape.
	recs := data.GenerateReal(data.RealConfig{Records: cfg.records})
	extent := data.MBROf(recs)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if cfg.duration > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, cfg.duration)
		defer tcancel()
	}

	// Per-worker pacing: each worker sends one batch every interval so
	// the fleet sums to -rate documents/second.
	var interval time.Duration
	if cfg.rate > 0 {
		interval = time.Duration(float64(time.Second) * float64(cfg.batch) * float64(cfg.workers) / float64(cfg.rate))
	}

	st := &followStats{}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := followWorker(ctx, w, cfg, a, extent, recs, interval, secret, st); err != nil {
				fmt.Fprintf(os.Stderr, "stload: worker %d: %v\n", w, err)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	docs := st.docs.Load()
	fmt.Printf("ingested %d docs in %d batches over %v (%.0f docs/s)\n",
		docs, st.batches.Load(), elapsed.Round(time.Millisecond), float64(docs)/elapsed.Seconds())
	fmt.Printf("dups=%d sheds=%d retries=%d\n", st.dups.Load(), st.sheds.Load(), st.retries.Load())
	st.mu.Lock()
	lats := st.latencies
	st.mu.Unlock()
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		fmt.Printf("ack latency p50=%v p99=%v max=%v\n",
			lats[len(lats)/2].Round(time.Microsecond),
			lats[len(lats)*99/100].Round(time.Microsecond),
			lats[len(lats)-1].Round(time.Microsecond))
	}
}

// followWorker is one ingest client: encode a batch, send it under a
// stable batch ID, retry until acked (overload sheds honour the
// server's retry-after hint), repeat.
func followWorker(ctx context.Context, w int, cfg followConfig, a core.Approach, extent geo.Rect, recs []core.Record, interval time.Duration, secret []byte, st *followStats) error {
	enc, err := core.NewEncoder(core.Config{
		Approach:   a,
		Shards:     cfg.shards,
		DataExtent: extent,
		Seed:       cfg.seed + uint64(w)*1_000_003,
	})
	if err != nil {
		return err
	}
	cl, err := netconn.DialRouter(cfg.router, netconn.Options{
		WaitReady:  10 * time.Second,
		AuthSecret: secret,
		Mutable:    true,
	})
	if err != nil {
		return err
	}
	defer cl.Close()

	var tick *time.Ticker
	if interval > 0 {
		tick = time.NewTicker(interval)
		defer tick.Stop()
	}
	next := w // cyclic cursor into the record slab, offset per worker
	for seq := 0; ; seq++ {
		if ctx.Err() != nil {
			return nil
		}
		raw := make([][]byte, 0, cfg.batch)
		for i := 0; i < cfg.batch; i++ {
			doc, err := enc.Document(recs[next%len(recs)])
			next++
			if err != nil {
				return err
			}
			raw = append(raw, bson.Marshal(doc))
		}
		batchID := fmt.Sprintf("w%d/%d", w, seq)
		sent := time.Now()
		for {
			reply, err := cl.Insert(batchID, raw)
			if err == nil {
				st.batches.Add(1)
				st.docs.Add(uint64(reply.Applied))
				if reply.Dup {
					st.dups.Add(1)
				}
				st.sample(time.Since(sent))
				break
			}
			// Overload sheds carry the server's backoff hint; anything
			// else (daemon restarting, torn conn) backs off briefly and
			// retries under the same batch ID — the idempotent core of
			// the client protocol.
			wait := 25 * time.Millisecond
			if se, ok := errAsServerError(err); ok && netconn.IsOverload(err) {
				st.sheds.Add(1)
				if se.RetryAfter > 0 {
					wait = se.RetryAfter
				}
			} else {
				st.retries.Add(1)
			}
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(wait):
			}
		}
		if tick != nil {
			select {
			case <-ctx.Done():
				return nil
			case <-tick.C:
			}
		}
	}
}

func errAsServerError(err error) (*netconn.ServerError, bool) {
	var se *netconn.ServerError
	if errors.As(err, &se) {
		return se, true
	}
	return nil, false
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
