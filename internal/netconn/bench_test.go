package netconn

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/query"
)

// handshakeRecords is the benchmark harness's base scale: the size at
// which a fresh connection's cost is reported.
const handshakeRecords = 120_000

var (
	handshakeOnce  sync.Once
	handshakeStore *core.Store
	handshakeErr   error
)

// BenchmarkProbeHandshake is the cost of one fresh connection to a
// ShardServer over a 120 k-record hil cluster: dial, the Hello that
// carries the content fingerprint, one Stats round trip, hang up. The
// store is built once per test binary, so only the first call pays
// the load.
func BenchmarkProbeHandshake(b *testing.B) {
	handshakeOnce.Do(func() {
		handshakeStore, handshakeErr = core.Open(core.Config{Approach: core.Hil, DataExtent: testExtent})
		if handshakeErr == nil {
			handshakeErr = handshakeStore.Load(testRecords(handshakeRecords))
		}
	})
	if handshakeErr != nil {
		b.Fatal(handshakeErr)
	}
	if docs, _ := handshakeStore.Fingerprint(); docs != handshakeRecords {
		b.Fatalf("store holds %d docs, want %d", docs, handshakeRecords)
	}
	addr := startServers(b, handshakeStore, 1, ServerOptions{})[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Probe(addr, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteQuery is one RemoteConn.Query over loopback: a
// 2 000-document answer from a one-shard store, which streams back in
// four reply frames at the default frame size.
func BenchmarkRemoteQuery(b *testing.B) {
	const docs = 2000
	s := openStore(b, core.Hil, 1, docs)
	addr := startServers(b, s, 1, ServerOptions{})[0]
	rc := connectRemote(b, s, []string{addr}, Options{})
	shard := s.Cluster().Shards()[0]
	f, _, _ := s.Filter(core.STQuery{Rect: testExtent, From: testStart, To: testStart.Add(docs * time.Minute)})
	res, err := rc.Query(context.Background(), shard, f, nil, query.Opts{})
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Docs) != docs {
		b.Fatalf("answer holds %d docs, want %d", len(res.Docs), docs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rc.Query(context.Background(), shard, f, nil, query.Opts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouterQuery is one Client.Query through the router hop:
// Client → RouterServer → RemoteConn → two ShardServers, all on
// loopback: "full" for a 1 000-document answer, and "topk" for its
// newest 100, whose walk asks the shards one after another, each hop
// carrying the bound the shards before it left.
func BenchmarkRouterQuery(b *testing.B) {
	const docs = 1000
	router := openStore(b, core.Hil, 2, 2*docs)
	backend := openStore(b, core.Hil, 2, 2*docs)
	rc := connectRemote(b, router, startServers(b, backend, 2, ServerOptions{}), Options{})
	router.Cluster().SetConn(rc)
	b.Cleanup(func() { router.Cluster().SetConn(nil) })
	rs := NewRouterServer(router, AdmitOptions{})
	addr, err := rs.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rs.Close)
	cl, err := DialRouter(addr, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.Close)
	full := core.STQuery{Rect: testExtent, From: testStart, To: testStart.Add(docs*time.Minute - time.Second)}
	topk := full
	topk.Limit, topk.Sort = 100, core.SortDateDesc
	for _, tc := range []struct {
		name string
		q    core.STQuery
		want int
	}{{"full", full, docs}, {"topk", topk, 100}} {
		b.Run(tc.name, func(b *testing.B) {
			res, err := cl.Query(tc.q)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Docs) != tc.want {
				b.Fatalf("answer holds %d docs, want %d", len(res.Docs), tc.want)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cl.Query(tc.q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
