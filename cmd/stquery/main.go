// Command stquery loads a data set and answers ad-hoc spatio-temporal
// range queries with explain-style output, so the routing and
// index-usage behaviour of each approach can be inspected directly.
//
// Usage:
//
//	stquery -approach hil -records 40000 \
//	        -rect 23.606039,38.023982,24.032754,38.353926 \
//	        -from 2018-07-11T00:00:00Z -to 2018-07-12T00:00:00Z
//
// With -dir, instead of generating and loading a data set the store
// is reopened from a durable directory created by `stload -dir`
// (crash recovery included); the approach and data configuration come
// from the directory's manifest:
//
//	stquery -dir ./store -rect ... -from ... -to ...
//
// With -f, each non-empty line of the file is one query
// ("lon1,lat1,lon2,lat2 from to", # starts a comment) and the whole
// file executes as one batch through the parallel scatter-gather
// pool (-parallel sets its width; 1 = sequential).
//
// With -faults, queries run behind a seeded fault-injecting shard
// boundary under the allow-partial policy; degraded results print
// PARTIAL with the failed shards plus the retry counter:
//
//	stquery -faults "0:down,2:slow=2ms" -rect ... -from ... -to ...
//
// With -addrs, the store's per-shard executions travel over TCP to
// stshardd daemons instead of running in-process: this process
// becomes a query router, and every daemon must have been started
// with the same data flags (the handshake fingerprint check enforces
// it):
//
//	stquery -addrs 127.0.0.1:7701,127.0.0.1:7702 -shards 4 -rect ... -from ... -to ...
//
// With -router, no store is built at all: queries go to a strouterd
// daemon as single spatio-temporal ops and only the routed results
// come back (the thin-driver mode; -explain and the local-boundary
// flags do not apply).
//
// With -digest, each result line is reduced to the query name, the
// returned count and a SHA-256 over the returned documents' bytes —
// a deterministic line that diffs cleanly between a local run, an
// -addrs run and a -router run of the same deployment.
//
// Omitting -rect/-from/-to/-f runs the paper's eight queries
// (Q1s..Q4b).
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geo"
	"repro/internal/netconn"
	"repro/internal/query"
	"repro/internal/sharding"
	"repro/internal/wire"
)

func main() {
	var (
		approach = flag.String("approach", "hil", "bslST | bslTS | hil | hil* | sthash")
		records  = flag.Int("records", 40000, "R-like records to generate and load")
		shards   = flag.Int("shards", 12, "number of shards")
		zones    = flag.Bool("zones", false, "configure zones after loading")
		rectStr  = flag.String("rect", "", "query rectangle: lon1,lat1,lon2,lat2")
		fromStr  = flag.String("from", "", "query start (RFC 3339)")
		toStr    = flag.String("to", "", "query end (RFC 3339)")
		limit    = flag.Int("limit", 0, "cap the result-set size, pushed down to the shards (0 = unlimited)")
		sortStr  = flag.String("sort", "", "order results by date: 'date' ascending, '-date' descending")
		verbose  = flag.Bool("v", false, "print matching documents")
		explain  = flag.Bool("explain", false, "print per-shard plan explanations")
		file     = flag.String("f", "", "file of queries to run as one batch")
		parallel = flag.Int("parallel", 0, "scatter-gather pool width (0 = GOMAXPROCS, 1 = sequential)")
		dir      = flag.String("dir", "", "reopen a durable store directory instead of loading")
		faults   = flag.String("faults", "", "per-shard fault injection, e.g. '0:down,2:slow=2ms' (allow-partial policy)")
		addrs    = flag.String("addrs", "", "comma-separated stshardd addresses: run per-shard executions over the network")
		router   = flag.String("router", "", "strouterd address: thin-client mode, no local store")
		stats    = flag.String("stats", "", "daemon address: print its health state and admission counters, then exit")
		secret   = flag.String("auth-secret", "", "shared secret for the handshake HMAC challenge (must match the daemons')")
		cache    = flag.Int64("cache", 0, "router result-cache budget in bytes (0 = no cache; local store modes only)")
	)
	flag.BoolVar(&digest, "digest", false, "print name, count and SHA-256 of each result (deterministic differential output)")
	flag.BoolVar(&aggCount, "count", false, "aggregate: return only the matching-document count (pushed down to the shards)")
	flag.StringVar(&aggDistinct, "distinct", "", "aggregate: return the distinct values of this field (pushed down)")
	flag.IntVar(&aggHeatmap, "heatmap", 0, "aggregate: per-cell density histogram at this many bits per dimension (Hilbert approaches)")
	flag.Parse()

	if *stats != "" {
		// The ops probe: one dial, the handshake identity and the
		// health/admission counters, formatted for a runbook eye.
		hello, st, err := netconn.Probe(*stats, netconn.Options{WaitReady: 5 * time.Second, AuthSecret: secretBytes(*secret)})
		if err != nil {
			fatal("stquery: -stats: %v", err)
		}
		fmt.Printf("%s: state=%s docs=%d fingerprint=%016x shards=%v\n",
			*stats, wire.StateName(st.State), hello.Docs, hello.Checksum, hello.ShardIDs)
		fmt.Printf("  inFlight=%d shed=%d cursors=%d heapInuse=%d\n",
			st.InFlight, st.Shed, st.Cursors, st.HeapInuse)
		return
	}

	sortOrder, err := parseSort(*sortStr)
	if err != nil {
		fatal("stquery: bad -sort: %v", err)
	}

	if *router != "" {
		if *explain || *faults != "" || *addrs != "" {
			fatal("stquery: -router is the thin-client mode; -explain/-faults/-addrs need a local store")
		}
		cl, err := netconn.DialRouter(*router, netconn.Options{WaitReady: 5 * time.Second, AuthSecret: secretBytes(*secret)})
		if err != nil {
			fatal("stquery: -router: %v", err)
		}
		defer cl.Close()
		docs, sum := cl.Fingerprint()
		fmt.Fprintf(os.Stderr, "router %s: %d documents, fingerprint %016x\n", *router, docs, sum)
		runQueries(routerQuerier{cl}, *file, *rectStr, *fromStr, *toStr, *limit, sortOrder, *verbose, nil)
		return
	}

	var s *core.Store
	if *dir != "" {
		var err error
		s, err = core.OpenDir(*dir, core.Config{Parallel: *parallel, ResultCacheBytes: *cache})
		if err != nil {
			fatal("stquery: %v", err)
		}
		docs, sum := s.Fingerprint()
		fmt.Fprintf(os.Stderr, "recovered %d documents under %s from %s (lsn %d, fingerprint %016x)\n",
			docs, s.Config().Approach, *dir, s.Cluster().LSN(), sum)
	} else {
		a, ok := core.ParseApproach(*approach)
		if !ok {
			fatal("stquery: unknown approach %q", *approach)
		}
		fmt.Fprintf(os.Stderr, "generating and loading %d records under %s...\n", *records, a)
		recs := data.GenerateReal(data.RealConfig{Records: *records})
		var err error
		s, err = core.Open(core.Config{
			Approach:         a,
			Shards:           *shards,
			DataExtent:       data.MBROf(recs),
			Parallel:         *parallel,
			ResultCacheBytes: *cache,
		})
		if err != nil {
			fatal("stquery: %v", err)
		}
		if err := s.Load(recs); err != nil {
			fatal("stquery: %v", err)
		}
		if *zones {
			if err := s.ConfigureZones(); err != nil {
				fatal("stquery: %v", err)
			}
		}
	}

	// The network boundary, when requested, is installed first so the
	// fault matrix below can wrap it (faults injected router-side, in
	// front of the wire).
	var remote sharding.ShardConn
	if *addrs != "" {
		rc, err := netconn.Connect(splitAddrs(*addrs), netconn.Options{WaitReady: 5 * time.Second, AuthSecret: secretBytes(*secret)})
		if err != nil {
			fatal("stquery: -addrs: %v", err)
		}
		defer rc.Close()
		if err := rc.Covers(len(s.Cluster().Shards())); err != nil {
			fatal("stquery: -addrs: %v", err)
		}
		docs, sum := s.Fingerprint()
		rdocs, rsum := rc.Fingerprint()
		if docs != rdocs || sum != rsum {
			fatal("stquery: shard servers hold different data: local (%d docs, %016x), remote (%d docs, %016x)",
				docs, sum, rdocs, rsum)
		}
		s.Cluster().SetConn(rc)
		fmt.Fprintf(os.Stderr, "network boundary: shards %v across %d servers (fingerprint %016x)\n",
			rc.Shards(), len(splitAddrs(*addrs)), sum)
		remote = rc
	}

	if *faults != "" {
		specs, err := sharding.ParseFaultSpec(*faults)
		if err != nil {
			fatal("stquery: bad -faults: %v", err)
		}
		fc := sharding.NewFaultConn(remote, 1)
		for sid, spec := range specs {
			fc.SetFault(sid, spec)
		}
		s.Cluster().SetConn(fc)
		s.Cluster().SetResilience(sharding.Resilience{
			Policy:       sharding.AllowPartial,
			ShardTimeout: 250 * time.Millisecond,
		})
		fmt.Fprintf(os.Stderr, "fault injection armed on shards %s (allow-partial)\n",
			sharding.FormatFaultShards(specs))
	}

	var explainFn func(core.STQuery)
	if *explain {
		explainFn = func(q core.STQuery) {
			shards, exps := s.Explain(q)
			for i, ex := range exps {
				fmt.Printf("--- shard%02d ---\n%s", shards[i], ex)
			}
		}
	}
	runQueries(s, *file, *rectStr, *fromStr, *toStr, *limit, sortOrder, *verbose, explainFn)
}

// querier is the execution surface shared by a store (with whatever
// shard boundary is installed on it) and the thin router client.
type querier interface {
	Query(core.STQuery) *core.QueryResult
}

// routerQuerier adapts the netconn thin client to the querier shape;
// a router error is fatal for a CLI run.
type routerQuerier struct{ c *netconn.Client }

func (r routerQuerier) Query(q core.STQuery) *core.QueryResult {
	res, err := r.c.Query(q)
	if err != nil {
		fatal("stquery: router: %v", err)
	}
	return res
}

// runQueries dispatches the selected query mode — a -f batch file, a
// single -rect query, or the paper's eight — through the querier.
func runQueries(exec querier, file, rectStr, fromStr, toStr string, limit int, sortOrder core.SortOrder, verbose bool, explainFn func(core.STQuery)) {
	if file != "" {
		if err := runQueryFile(exec, file, limit, sortOrder); err != nil {
			fatal("stquery: %v", err)
		}
		return
	}
	if rectStr == "" {
		runPaperQueries(exec, limit, sortOrder)
		return
	}
	rect, err := parseRect(rectStr)
	if err != nil {
		fatal("stquery: %v", err)
	}
	from, err := time.Parse(time.RFC3339, fromStr)
	if err != nil {
		fatal("stquery: bad -from: %v", err)
	}
	to, err := time.Parse(time.RFC3339, toStr)
	if err != nil {
		fatal("stquery: bad -to: %v", err)
	}
	q := withAgg(core.STQuery{Rect: rect, From: from, To: to, Limit: limit, Sort: sortOrder})
	res := exec.Query(q)
	printResult("query", res)
	if explainFn != nil {
		explainFn(q)
	}
	if verbose {
		for _, d := range res.Docs {
			doc, err := d.Decode()
			if err != nil {
				continue
			}
			fmt.Println(doc)
		}
	}
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

// runQueryFile parses the file (one query per line:
// "lon1,lat1,lon2,lat2 from to") and executes all of it as a single
// batch through the scatter-gather pool.
func runQueryFile(exec querier, path string, limit int, sortOrder core.SortOrder) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var qs []core.STQuery
	var names []string
	for ln, line := range strings.Split(string(blob), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return fmt.Errorf("%s:%d: want \"rect from to\", got %q", path, ln+1, line)
		}
		rect, err := parseRect(fields[0])
		if err != nil {
			return fmt.Errorf("%s:%d: %w", path, ln+1, err)
		}
		from, err := time.Parse(time.RFC3339, fields[1])
		if err != nil {
			return fmt.Errorf("%s:%d: bad from: %w", path, ln+1, err)
		}
		to, err := time.Parse(time.RFC3339, fields[2])
		if err != nil {
			return fmt.Errorf("%s:%d: bad to: %w", path, ln+1, err)
		}
		qs = append(qs, withAgg(core.STQuery{Rect: rect, From: from, To: to, Limit: limit, Sort: sortOrder}))
		names = append(names, fmt.Sprintf("q%d", len(qs)))
	}
	if len(qs) == 0 {
		return fmt.Errorf("%s: no queries", path)
	}
	start := time.Now()
	// The store path runs the whole file as one batch through the
	// scatter-gather pool; the thin router client has no batch op.
	var results []*core.QueryResult
	if s, ok := exec.(*core.Store); ok {
		results = s.QueryBatch(qs)
	} else {
		results = make([]*core.QueryResult, len(qs))
		for i, q := range qs {
			results[i] = exec.Query(q)
		}
	}
	elapsed := time.Since(start)
	for i, res := range results {
		printResult(names[i], res)
	}
	fmt.Printf("batch: %d queries in %v (wall)\n", len(qs), elapsed)
	return nil
}

func runPaperQueries(exec querier, limit int, sortOrder core.SortOrder) {
	ds := &bench.Dataset{
		Start: data.RStart,
		Offsets: [4]time.Duration{
			10 * 24 * time.Hour, 20 * 24 * time.Hour,
			40 * 24 * time.Hour, 70 * 24 * time.Hour,
		},
	}
	for _, small := range []bool{true, false} {
		names := bench.QueryNames(small)
		for i, q := range ds.Queries(small) {
			q.Limit, q.Sort = limit, sortOrder
			printResult(names[i], exec.Query(withAgg(q)))
		}
	}
}

func parseSort(s string) (core.SortOrder, error) {
	switch s {
	case "":
		return core.SortNone, nil
	case "date":
		return core.SortDateAsc, nil
	case "-date":
		return core.SortDateDesc, nil
	}
	return core.SortNone, fmt.Errorf("want 'date' or '-date', got %q", s)
}

// digest switches printResult to the deterministic differential
// format: name, count, SHA-256 of the returned documents' bytes.
var digest bool

// The aggregate request flags (-count/-distinct/-heatmap), applied to
// every query the run builds.
var (
	aggCount    bool
	aggDistinct string
	aggHeatmap  int
)

// withAgg stamps the aggregate request onto a built query.
func withAgg(q core.STQuery) core.STQuery {
	q.Count, q.Distinct, q.HeatmapBits = aggCount, aggDistinct, aggHeatmap
	return q
}

func printResult(name string, res *core.QueryResult) {
	if res.Err != nil {
		fatal("stquery: %v", res.Err)
	}
	if digest {
		h := sha256.New()
		n := len(res.Docs)
		if res.Agg != nil {
			// The canonical aggregate encoding: the same bytes no
			// matter which process (or how many) computed the merge.
			h.Write(wire.AppendAggResult(nil, res.Agg))
			n = int(res.Agg.Count)
		} else {
			for _, d := range res.Docs {
				h.Write(d)
			}
		}
		fmt.Printf("%-5s n=%-7d sha256=%x\n", name, n, h.Sum(nil))
		return
	}
	st := res.Stats
	fmt.Printf("%-5s returned=%-7d nodes=%-2d maxKeys=%-8d maxDocs=%-8d time=%-12v",
		name, st.NReturned, st.Nodes, st.MaxKeysExamined, st.MaxDocsExamined, st.Duration)
	if a := res.Agg; a != nil {
		switch a.Kind {
		case query.AggCount:
			fmt.Printf(" count=%d", a.Count)
		case query.AggDistinct:
			fmt.Printf(" distinct=%d", len(a.Distinct))
		case query.AggCellHist:
			fmt.Printf(" cells=%d count=%d", len(a.Cells), a.Count)
		}
	}
	if st.ShardsPruned > 0 {
		fmt.Printf(" pruned=%d", st.ShardsPruned)
	}
	if st.CacheHit {
		fmt.Printf(" CACHED")
	}
	if st.CoverRanges+st.CoverCells > 0 {
		fmt.Printf(" cover=%dr+%dc (%v)", st.CoverRanges, st.CoverCells, st.CoverDuration)
	}
	if st.Broadcast {
		fmt.Printf(" BROADCAST")
	}
	if st.Partial {
		fmt.Printf(" PARTIAL failed=%v", st.FailedShards)
	}
	if st.Retries > 0 {
		fmt.Printf(" retries=%d", st.Retries)
	}
	fmt.Printf(" idx=%s\n", summarizeIndexes(st.IndexesUsed))
}

func summarizeIndexes(used []string) string {
	counts := map[string]int{}
	for _, u := range used {
		counts[u]++
	}
	var parts []string
	for name, n := range counts {
		parts = append(parts, fmt.Sprintf("%s x%d", name, n))
	}
	return strings.Join(parts, ", ")
}

func parseRect(s string) (geo.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return geo.Rect{}, fmt.Errorf("rect needs 4 comma-separated numbers")
	}
	var v [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return geo.Rect{}, fmt.Errorf("rect component %d: %w", i, err)
		}
		v[i] = f
	}
	return geo.NewRect(v[0], v[1], v[2], v[3]), nil
}

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
