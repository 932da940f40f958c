package netconn

import (
	"sync"
	"testing"

	"repro/internal/core"
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
