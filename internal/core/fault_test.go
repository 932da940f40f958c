package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/sharding"
)

// TestQueryStatsSurfaceFaults: the store-level metrics must carry the
// router's fault observables — a down shard under the allow-partial
// policy yields Partial=true with the failed shards listed, while the
// healthy run reports zero fault counters. Concurrent clients hammer
// the degraded store to exercise the breaker and counters under -race.
func TestQueryStatsSurfaceFaults(t *testing.T) {
	s := openStore(t, Hil, 4)
	if err := s.Load(testRecords(2000)); err != nil {
		t.Fatal(err)
	}
	q := STQuery{
		Rect: testExtent,
		From: testStart,
		To:   testStart.Add(2000 * time.Minute),
	}
	base := s.Query(q)
	if base.Stats.Partial || base.Stats.Retries != 0 ||
		base.Stats.FailedShards != nil {
		t.Fatalf("healthy query carries fault counters: %+v", base.Stats)
	}
	if base.Stats.Nodes < 2 {
		t.Fatalf("query targets %d shards; need >=2 to fault one", base.Stats.Nodes)
	}

	fc := sharding.NewFaultConn(nil, 1)
	fc.SetFault(0, sharding.FaultSpec{Down: true})
	s.Cluster().SetConn(fc)
	s.Cluster().SetResilience(sharding.Resilience{Policy: sharding.AllowPartial})
	defer func() {
		s.Cluster().SetConn(nil)
		s.Cluster().SetResilience(sharding.Resilience{})
	}()

	const clients = 4
	var wg sync.WaitGroup
	results := make([]*QueryResult, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = s.Query(q)
		}(c)
	}
	wg.Wait()
	for c, res := range results {
		if !res.Stats.Partial {
			t.Fatalf("client %d: down shard not marked partial", c)
		}
		if len(res.Stats.FailedShards) != 1 || res.Stats.FailedShards[0] != 0 {
			t.Fatalf("client %d: FailedShards = %v, want [0]", c, res.Stats.FailedShards)
		}
		if res.Stats.NReturned >= base.Stats.NReturned {
			t.Fatalf("client %d: partial result not smaller than complete (%d vs %d)",
				c, res.Stats.NReturned, base.Stats.NReturned)
		}
		if res.Stats.Nodes != base.Stats.Nodes {
			t.Fatalf("client %d: routing changed under faults (%d vs %d nodes)",
				c, res.Stats.Nodes, base.Stats.Nodes)
		}
	}
}
