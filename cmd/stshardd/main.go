// Command stshardd is the shard server daemon: it constructs the
// cluster deterministically (same flags as stquery — or the same
// durable directory) and serves a subset of its shards over the wire
// protocol, answering per-shard query, insert, ping and stats ops
// from routers; a query's answer streams back in one exchange.
//
// There is no config-server protocol: every process in a deployment
// builds the identical cluster from the same inputs, and the
// handshake's content fingerprint catches processes that were started
// with different ones. A two-server split of a four-shard cluster:
//
//	stshardd -addr 127.0.0.1:7701 -serve 0,2 -approach hil -records 40000 -shards 4 &
//	stshardd -addr 127.0.0.1:7702 -serve 1,3 -approach hil -records 40000 -shards 4 &
//	stquery  -addrs 127.0.0.1:7701,127.0.0.1:7702 -approach hil -records 40000 -shards 4
//
// With -dir the store is reopened from a durable directory instead of
// being generated; all daemons must point at (copies of) the same
// directory state.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/netconn"
	"repro/internal/sharding"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7701", "listen address")
		serve    = flag.String("serve", "", "comma-separated shard ids to serve (empty = all)")
		approach = flag.String("approach", "hil", "bslST | bslTS | hil | hil* | sthash")
		records  = flag.Int("records", 40000, "R-like records to generate and load")
		shards   = flag.Int("shards", 12, "number of shards in the cluster")
		zones    = flag.Bool("zones", false, "configure zones after loading")
		dir      = flag.String("dir", "", "reopen a durable store directory instead of loading")

		maxConns      = flag.Int("max-conns", netconn.DefaultMaxConns, "cap on concurrently open connections")
		maxInFlight   = flag.Int("max-inflight", 0, "cap on concurrently executing requests, queries and insert batches alike (0 = 4x GOMAXPROCS)")
		admissionWait = flag.Duration("admission-wait", netconn.DefaultAdmissionWait, "how long a request may queue for an in-flight slot before being shed")
		retryAfter    = flag.Duration("retry-after", netconn.DefaultRetryAfterHint, "backoff hint carried in overload errors")
		memWatermark  = flag.Uint64("mem-watermark", 0, "shed new requests while heap-in-use exceeds this many bytes (0 = off)")
		queryDeadline = flag.Duration("query-deadline", 0, "server-side per-query deadline; expiry sheds as overload (0 = off)")
		drainBudget   = flag.Duration("drain", netconn.DefaultDrainTimeout, "graceful-drain budget on SIGTERM/SIGINT")
		chaosLatency  = flag.Duration("chaos-latency", 0, "inject this much execution latency into every shard op (chaos-testing hook; 0 = off)")
		authSecret    = flag.String("auth-secret", "", "shared secret for the handshake HMAC challenge (empty = no authentication)")
	)
	flag.Parse()

	s := buildStore(*dir, *approach, *records, *shards, *zones)
	ids, err := parseShardIDs(*serve)
	if err != nil {
		fatal("stshardd: bad -serve: %v", err)
	}

	// The chaos hook slows shard executions so in-flight slots stay
	// occupied long enough for overload bursts to contend realistically;
	// on an unloaded in-memory store ops finish in microseconds and
	// admission control would never be reached.
	var conn sharding.ShardConn
	if *chaosLatency > 0 {
		fc := sharding.NewFaultConn(nil, 1)
		for _, sh := range s.Cluster().Shards() {
			fc.SetFault(sh.ID, sharding.FaultSpec{Latency: *chaosLatency})
		}
		conn = fc
	}

	srv, err := netconn.NewShardServer(s.Cluster(), ids, netconn.ServerOptions{
		Conn:       conn,
		AuthSecret: secretBytes(*authSecret),
		Admit: netconn.AdmitOptions{
			MaxConns:       *maxConns,
			MaxInFlight:    *maxInFlight,
			AdmissionWait:  *admissionWait,
			RetryAfterHint: *retryAfter,
			MemWatermark:   *memWatermark,
			QueryDeadline:  *queryDeadline,
			DrainTimeout:   *drainBudget,
		},
	})
	if err != nil {
		fatal("stshardd: %v", err)
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		fatal("stshardd: %v", err)
	}
	docs, sum := s.Fingerprint()
	// The store's real shard count, not the -shards flag: with -dir the
	// manifest wins and the flag keeps its default.
	nshards := len(s.Cluster().Shards())
	fmt.Fprintf(os.Stderr, "stshardd: serving shards %s of %d on %s (%d docs, fingerprint %016x)\n",
		describeServe(ids, nshards), nshards, bound, docs, sum)

	// SIGTERM/SIGINT trigger a graceful drain: stop accepting, finish
	// in-flight requests within the drain budget, checkpoint the WAL.
	// A second signal skips the wait and exits immediately.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintf(os.Stderr, "stshardd: draining (budget %v; signal again to force)\n", *drainBudget)
	done := make(chan bool, 1)
	go func() { done <- srv.Drain(*drainBudget) }()
	select {
	case clean := <-done:
		if !clean {
			fmt.Fprintln(os.Stderr, "stshardd: drain budget expired with requests in flight")
		}
	case <-sig:
		fmt.Fprintln(os.Stderr, "stshardd: forced shutdown")
		os.Exit(1)
	}
	if s.Durable() {
		if err := s.Checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "stshardd: checkpoint: %v\n", err)
		}
	}
	if err := s.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "stshardd: close: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "stshardd: shut down")
}

// buildStore constructs the deterministic store every process in the
// deployment agrees on: generated from the seeded data generator, or
// recovered from a durable directory. The construction path must stay
// identical to stquery's so the content fingerprints match.
func buildStore(dir, approach string, records, shards int, zones bool) *core.Store {
	if dir != "" {
		s, err := core.OpenDir(dir, core.Config{})
		if err != nil {
			fatal("stshardd: %v", err)
		}
		return s
	}
	a, ok := core.ParseApproach(approach)
	if !ok {
		fatal("stshardd: unknown approach %q", approach)
	}
	fmt.Fprintf(os.Stderr, "stshardd: generating and loading %d records under %s...\n", records, a)
	start := time.Now()
	recs := data.GenerateReal(data.RealConfig{Records: records})
	s, err := core.Open(core.Config{
		Approach:   a,
		Shards:     shards,
		DataExtent: data.MBROf(recs),
	})
	if err != nil {
		fatal("stshardd: %v", err)
	}
	if err := s.Load(recs); err != nil {
		fatal("stshardd: %v", err)
	}
	if zones {
		if err := s.ConfigureZones(); err != nil {
			fatal("stshardd: %v", err)
		}
	}
	fmt.Fprintf(os.Stderr, "stshardd: loaded in %v\n", time.Since(start).Round(time.Millisecond))
	return s
}

func parseShardIDs(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var ids []int
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

func describeServe(ids []int, shards int) string {
	if ids == nil {
		return fmt.Sprintf("0..%d", shards-1)
	}
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(id)
	}
	return strings.Join(parts, ",")
}

// secretBytes maps the flag onto the wire secret (empty = auth off).
func secretBytes(s string) []byte {
	if s == "" {
		return nil
	}
	return []byte(s)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
