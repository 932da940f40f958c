// Command strouterd is the mongos-style query router daemon: it owns
// the chunk map (by constructing the same deterministic cluster as
// its shard servers), executes every per-shard leg of a query through
// RemoteConns to the stshardd processes in -addrs, and answers the
// client-facing spatio-temporal query op on -addr.
//
// The handshake fingerprint check refuses shard servers whose data
// disagrees with the router's own construction, so a mis-started
// deployment fails at connect time rather than returning wrong
// results:
//
//	stshardd -addr 127.0.0.1:7701 -serve 0,2 -shards 4 ... &
//	stshardd -addr 127.0.0.1:7702 -serve 1,3 -shards 4 ... &
//	strouterd -addr 127.0.0.1:7700 -addrs 127.0.0.1:7701,127.0.0.1:7702 -shards 4 ...
//	stquery -router 127.0.0.1:7700 -rect ... -from ... -to ...
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
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
		addr      = flag.String("addr", "127.0.0.1:7700", "listen address for query clients")
		addrs     = flag.String("addrs", "", "comma-separated stshardd addresses (required)")
		approach  = flag.String("approach", "hil", "bslST | bslTS | hil | hil* | sthash")
		records   = flag.Int("records", 40000, "R-like records to generate and load")
		shards    = flag.Int("shards", 12, "number of shards in the cluster")
		zones     = flag.Bool("zones", false, "configure zones after loading")
		dir       = flag.String("dir", "", "reopen a durable store directory instead of loading")
		parallel  = flag.Int("parallel", 0, "scatter-gather pool width (0 = GOMAXPROCS)")
		waitReady = flag.Duration("wait-ready", 10*time.Second, "keep re-dialing refused shard servers for this long")

		maxConns      = flag.Int("max-conns", netconn.DefaultMaxConns, "cap on concurrently open client connections")
		maxInFlight   = flag.Int("max-inflight", 0, "cap on concurrently executing requests, queries and insert batches alike (0 = 4x GOMAXPROCS)")
		admissionWait = flag.Duration("admission-wait", netconn.DefaultAdmissionWait, "how long a request may queue for an in-flight slot before being shed")
		retryAfter    = flag.Duration("retry-after", netconn.DefaultRetryAfterHint, "backoff hint carried in overload errors")
		memWatermark  = flag.Uint64("mem-watermark", 0, "shed new requests while heap-in-use exceeds this many bytes (0 = off)")
		drainBudget   = flag.Duration("drain", netconn.DefaultDrainTimeout, "graceful-drain budget on SIGTERM/SIGINT")
		authSecret    = flag.String("auth-secret", "", "shared secret for the handshake HMAC challenge, used both toward shard servers and toward clients (empty = no authentication)")
		writes        = flag.Bool("writes", false, "accept the insert op and broadcast batches to every shard server; relaxes the startup fingerprint equality checks (daemons may be mid-convergence after a crash)")
	)
	flag.Parse()
	if *addrs == "" {
		fatal("strouterd: -addrs is required")
	}

	s := buildStore(*dir, *approach, *records, *shards, *zones, *parallel)

	list := splitAddrs(*addrs)
	rc, err := netconn.Connect(list, netconn.Options{
		WaitReady:  *waitReady,
		AuthSecret: secretBytes(*authSecret),
		Mutable:    *writes,
	})
	if err != nil {
		fatal("strouterd: %v", err)
	}
	if err := rc.Covers(len(s.Cluster().Shards())); err != nil {
		fatal("strouterd: %v", err)
	}
	docs, sum := s.Fingerprint()
	rdocs, rsum := rc.Fingerprint()
	if docs != rdocs || sum != rsum {
		// A write-enabled deployment tolerates startup disagreement: a
		// crash can leave an unacknowledged batch applied on some
		// processes only, and the retrying client reconverges them.
		if !*writes {
			fatal("strouterd: shard servers hold different data: local (%d docs, %016x), remote (%d docs, %016x)",
				docs, sum, rdocs, rsum)
		}
		fmt.Fprintf(os.Stderr, "strouterd: fingerprints disagree at startup: local (%d docs, %016x), remote (%d docs, %016x) — expecting retries to converge\n",
			docs, sum, rdocs, rsum)
	}
	s.Cluster().SetConn(rc)
	// Network legs fail differently from in-process ones; retry through
	// the existing resilience machinery and tolerate a lost shard with
	// partial results rather than failing the whole query.
	s.Cluster().SetResilience(sharding.Resilience{
		Policy:       sharding.AllowPartial,
		ShardTimeout: 5 * time.Second,
	})

	srv := netconn.NewRouterServer(s, netconn.AdmitOptions{
		MaxConns:       *maxConns,
		MaxInFlight:    *maxInFlight,
		AdmissionWait:  *admissionWait,
		RetryAfterHint: *retryAfter,
		MemWatermark:   *memWatermark,
		DrainTimeout:   *drainBudget,
	})
	srv.AuthSecret = secretBytes(*authSecret)
	bound, err := srv.Listen(*addr)
	if err != nil {
		fatal("strouterd: %v", err)
	}
	fmt.Fprintf(os.Stderr, "strouterd: routing %d shards across %d servers on %s (%d docs, fingerprint %016x)\n",
		len(s.Cluster().Shards()), len(list), bound, docs, sum)

	// SIGTERM/SIGINT drain gracefully (in-flight scatter-gathers
	// finish within the budget); a second signal forces exit.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintf(os.Stderr, "strouterd: draining (budget %v; signal again to force)\n", *drainBudget)
	done := make(chan bool, 1)
	go func() { done <- srv.Drain(*drainBudget) }()
	select {
	case clean := <-done:
		if !clean {
			fmt.Fprintln(os.Stderr, "strouterd: drain budget expired with queries in flight")
		}
	case <-sig:
		fmt.Fprintln(os.Stderr, "strouterd: forced shutdown")
		os.Exit(1)
	}
	rc.Close()
	if s.Durable() {
		if err := s.Checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "strouterd: checkpoint: %v\n", err)
		}
	}
	if err := s.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "strouterd: close: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "strouterd: shut down")
}

func buildStore(dir, approach string, records, shards int, zones bool, parallel int) *core.Store {
	if dir != "" {
		s, err := core.OpenDir(dir, core.Config{Parallel: parallel})
		if err != nil {
			fatal("strouterd: %v", err)
		}
		return s
	}
	a, ok := core.ParseApproach(approach)
	if !ok {
		fatal("strouterd: unknown approach %q", approach)
	}
	fmt.Fprintf(os.Stderr, "strouterd: generating and loading %d records under %s...\n", records, a)
	recs := data.GenerateReal(data.RealConfig{Records: records})
	s, err := core.Open(core.Config{
		Approach:   a,
		Shards:     shards,
		DataExtent: data.MBROf(recs),
		Parallel:   parallel,
	})
	if err != nil {
		fatal("strouterd: %v", err)
	}
	if err := s.Load(recs); err != nil {
		fatal("strouterd: %v", err)
	}
	if zones {
		if err := s.ConfigureZones(); err != nil {
			fatal("strouterd: %v", err)
		}
	}
	return s
}

func splitAddrs(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
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
