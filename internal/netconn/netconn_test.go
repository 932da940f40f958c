package netconn

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/sharding"
)

var (
	testExtent = geo.NewRect(23.0, 37.0, 25.0, 39.0)
	testStart  = time.Date(2018, 7, 1, 0, 0, 0, 0, time.UTC)
	testRect   = geo.NewRect(23.4, 37.4, 24.6, 38.6)
)

func testRecords(n int) []core.Record {
	rng := rand.New(rand.NewSource(5))
	recs := make([]core.Record, n)
	for i := range recs {
		recs[i] = core.Record{
			Point: geo.Point{
				Lon: testExtent.Min.Lon + rng.Float64()*testExtent.Width(),
				Lat: testExtent.Min.Lat + rng.Float64()*testExtent.Height(),
			},
			Time: testStart.Add(time.Duration(i) * time.Minute),
			Fields: bson.D{
				{Key: "vehicleId", Value: int64(i % 10)},
			},
		}
	}
	return recs
}

// openStore builds one deterministic loaded store; called repeatedly
// it yields byte-identical clusters, the property the multi-process
// deployment rests on.
func openStore(t testing.TB, a core.Approach, shards, records int) *core.Store {
	t.Helper()
	s, err := core.Open(core.Config{
		Approach:         a,
		Shards:           shards,
		ChunkMaxBytes:    8 << 10,
		AutoBalanceEvery: 256,
		DataExtent:       testExtent,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(testRecords(records)); err != nil {
		t.Fatal(err)
	}
	return s
}

// startServers splits the store's shards across n ShardServers and
// returns their addresses.
func startServers(t testing.TB, s *core.Store, n int, opts ServerOptions) []string {
	t.Helper()
	shards := s.Cluster().Shards()
	if n > len(shards) {
		t.Fatalf("cannot split %d shards across %d servers", len(shards), n)
	}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		var serve []int
		for id := i; id < len(shards); id += n {
			serve = append(serve, id)
		}
		srv, err := NewShardServer(s.Cluster(), serve, opts)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		addrs[i] = addr
	}
	return addrs
}

// connectRemote connects a RemoteConn covering the store's shards.
func connectRemote(t testing.TB, s *core.Store, addrs []string, opts Options) *RemoteConn {
	t.Helper()
	rc, err := Connect(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)
	if err := rc.Covers(len(s.Cluster().Shards())); err != nil {
		t.Fatal(err)
	}
	docs, sum := s.Fingerprint()
	rdocs, rsum := rc.Fingerprint()
	if docs != rdocs || sum != rsum {
		t.Fatalf("fingerprint mismatch: local (%d, %016x), remote (%d, %016x)", docs, sum, rdocs, rsum)
	}
	return rc
}

// queryMatrix is the differential matrix: range scans, limits, top-k
// both directions, windows crossing many batches.
func queryMatrix() []core.STQuery {
	week := testStart.Add(7 * 24 * time.Hour)
	return []core.STQuery{
		{Rect: testRect, From: testStart, To: week},
		{Rect: testRect, From: testStart, To: testStart.Add(time.Hour)},
		{Rect: testRect, From: testStart, To: week, Limit: 17},
		{Rect: testRect, From: testStart, To: week, Limit: 25, Sort: core.SortDateAsc},
		{Rect: testRect, From: testStart, To: week, Limit: 25, Sort: core.SortDateDesc},
		{Rect: testRect, From: testStart, To: week, Sort: core.SortDateAsc},
		{Rect: geo.NewRect(23.9, 37.9, 24.1, 38.1), From: testStart, To: testStart.Add(30 * 24 * time.Hour)},
	}
}

func assertSameDocs(t *testing.T, label string, want, got []bson.Raw) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d docs locally, %d over the network", label, len(want), len(got))
	}
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("%s: doc %d differs over the network", label, i)
		}
	}
}

// TestRemoteDifferentialMatrix is the acceptance differential: a
// router whose per-shard executions travel through two real TCP shard
// servers must return byte-identical results to the in-process
// LocalConn path, for the full range/limit/top-k matrix, across many
// reply-frame boundaries.
func TestRemoteDifferentialMatrix(t *testing.T) {
	for _, a := range []core.Approach{core.Hil, core.BslST} {
		t.Run(a.String(), func(t *testing.T) {
			router := openStore(t, a, 4, 3000)
			backend := openStore(t, a, 4, 3000)
			addrs := startServers(t, backend, 2, ServerOptions{})
			// A frame size of 7 streams dozens of reply frames per shard.
			rc := connectRemote(t, router, addrs, Options{})
			rc.batch = 7

			queries := queryMatrix()
			local := make([]*core.QueryResult, len(queries))
			for i, q := range queries {
				local[i] = router.Query(q)
			}
			router.Cluster().SetConn(rc)
			defer router.Cluster().SetConn(nil)
			for i, q := range queries {
				remote := router.Query(q)
				assertSameDocs(t, q.From.Format("q2006-01-02")+"-"+time.Duration(q.Limit).String(), local[i].Docs, remote.Docs)
				if remote.Stats.NReturned != local[i].Stats.NReturned {
					t.Fatalf("query %d: NReturned %d != %d", i, remote.Stats.NReturned, local[i].Stats.NReturned)
				}
				if remote.Stats.MaxKeysExamined != local[i].Stats.MaxKeysExamined ||
					remote.Stats.MaxDocsExamined != local[i].Stats.MaxDocsExamined {
					t.Fatalf("query %d: examined counters diverge over the network", i)
				}
			}
		})
	}
}

// TestTransientErrorCrossesWire proves the ShardError.Transient bit
// survives serialization: a server-side FaultConn makes the first two
// attempts on shard 0 fail transiently, and the router's existing
// retry machinery — knowing nothing about the network — retries
// through the RemoteConn and succeeds.
func TestTransientErrorCrossesWire(t *testing.T) {
	router := openStore(t, core.Hil, 3, 600)
	backend := openStore(t, core.Hil, 3, 600)
	fc := sharding.NewFaultConn(nil, 1)
	fc.SetFault(0, sharding.FaultSpec{FailFirst: 2})
	addrs := startServers(t, backend, 1, ServerOptions{Conn: fc})
	rc := connectRemote(t, router, addrs, Options{})
	router.Cluster().SetConn(rc)
	defer router.Cluster().SetConn(nil)

	res := router.Query(core.STQuery{Rect: testRect, From: testStart, To: testStart.Add(7 * 24 * time.Hour)})
	if res.Stats.Partial || len(res.Stats.FailedShards) > 0 {
		t.Fatalf("expected retries to recover: %+v", res.Stats)
	}
	if res.Stats.Retries < 2 {
		t.Fatalf("expected >= 2 retries, got %d", res.Stats.Retries)
	}

	// A hard server-side failure must cross as non-transient.
	fc.SetFault(1, sharding.FaultSpec{Down: true})
	shard1 := router.Cluster().Shards()[1]
	f, _, _ := router.Filter(core.STQuery{Rect: testRect, From: testStart, To: testStart.Add(time.Hour)})
	_, err := rc.Query(context.Background(), shard1, f, nil, query.Opts{})
	if err == nil || sharding.IsTransient(err) {
		t.Fatalf("expected hard error from downed shard, got %v", err)
	}
}

// TestFaultConnWrapsRemote proves the router-side fault matrix
// composes with the network transport: a FaultConn whose inner conn
// is a RemoteConn injects the fault before the wire, and the retry
// that follows re-executes the full network query, streamed in
// several frames.
func TestFaultConnWrapsRemote(t *testing.T) {
	router := openStore(t, core.Hil, 3, 1200)
	backend := openStore(t, core.Hil, 3, 1200)
	addrs := startServers(t, backend, 1, ServerOptions{})
	rc := connectRemote(t, router, addrs, Options{})
	rc.batch = 5

	fc := sharding.NewFaultConn(rc, 42)
	fc.SetFault(0, sharding.FaultSpec{FailFirst: 1})
	router.Cluster().SetConn(fc)
	defer router.Cluster().SetConn(nil)

	baseline := openStore(t, core.Hil, 3, 1200)
	q := core.STQuery{Rect: testRect, From: testStart, To: testStart.Add(7 * 24 * time.Hour), Limit: 40, Sort: core.SortDateAsc}
	want := baseline.Query(q)
	got := router.Query(q)
	assertSameDocs(t, "after retry", want.Docs, got.Docs)
	if got.Stats.Retries < 1 {
		t.Fatalf("expected a retry, got %d", got.Stats.Retries)
	}
}
