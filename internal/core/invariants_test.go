package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
)

// TestQueryMetricInvariants checks structural relations that must
// hold for every approach on every query: keys examined bounds docs
// examined per node, nodes bounds the shard count, counters are
// non-negative, and the same query repeated returns identical
// counters (determinism).
func TestQueryMetricInvariants(t *testing.T) {
	recs := testRecords(2500)
	rng := rand.New(rand.NewSource(13))
	queries := make([]STQuery, 0, 12)
	for i := 0; i < 12; i++ {
		lon := testExtent.Min.Lon + rng.Float64()*1.5
		lat := testExtent.Min.Lat + rng.Float64()*1.5
		from := testStart.Add(time.Duration(rng.Intn(30*24)) * time.Hour)
		queries = append(queries, STQuery{
			Rect: geo.NewRect(lon, lat, lon+rng.Float64()*0.5, lat+rng.Float64()*0.5),
			From: from,
			To:   from.Add(time.Duration(1+rng.Intn(14*24)) * time.Hour),
		})
	}
	for _, a := range AllApproaches() {
		s := openStore(t, a, 4)
		if err := s.Load(recs); err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			r1 := s.Query(q)
			r2 := s.Query(q)
			st := r1.Stats
			if st.MaxDocsExamined > st.MaxKeysExamined {
				t.Errorf("%s q%d: maxDocs %d > maxKeys %d", a, qi, st.MaxDocsExamined, st.MaxKeysExamined)
			}
			if st.Nodes > 4 || st.Nodes < 0 {
				t.Errorf("%s q%d: nodes = %d", a, qi, st.Nodes)
			}
			if st.NReturned > 0 && st.Nodes == 0 {
				t.Errorf("%s q%d: results without nodes", a, qi)
			}
			if len(r1.Docs) != st.NReturned {
				t.Errorf("%s q%d: docs/NReturned mismatch", a, qi)
			}
			if r2.Stats.NReturned != st.NReturned ||
				r2.Stats.MaxKeysExamined != st.MaxKeysExamined ||
				r2.Stats.MaxDocsExamined != st.MaxDocsExamined ||
				r2.Stats.Nodes != st.Nodes {
				t.Errorf("%s q%d: counters not deterministic across runs", a, qi)
			}
		}
	}
}

// TestSeedChangesIDsOnly verifies the Seed only affects _id
// generation, never results.
func TestSeedChangesIDsOnly(t *testing.T) {
	recs := testRecords(800)
	q := STQuery{Rect: geo.NewRect(23.2, 37.2, 24.4, 38.4), From: testStart, To: testStart.Add(5 * 24 * time.Hour)}
	counts := map[uint64]int{}
	for _, seed := range []uint64{1, 99} {
		s, err := Open(Config{Approach: Hil, Shards: 3, ChunkMaxBytes: 16 << 10, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Load(recs); err != nil {
			t.Fatal(err)
		}
		counts[seed] = s.Count(q)
	}
	if counts[1] != counts[99] {
		t.Fatalf("seed changed results: %v", counts)
	}
}

// TestShardCountInvariance: results do not depend on the number of
// shards.
func TestShardCountInvariance(t *testing.T) {
	recs := testRecords(1200)
	q := STQuery{Rect: geo.NewRect(23.3, 37.3, 24.2, 38.2), From: testStart, To: testStart.Add(10 * 24 * time.Hour)}
	var want int
	for i, shards := range []int{1, 3, 8} {
		s, err := Open(Config{Approach: Hil, Shards: shards, ChunkMaxBytes: 16 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Load(recs); err != nil {
			t.Fatal(err)
		}
		got := s.Count(q)
		if i == 0 {
			want = got
			if want == 0 {
				t.Fatal("vacuous test: no results")
			}
		} else if got != want {
			t.Fatalf("%d shards returned %d, want %d", shards, got, want)
		}
	}
}

// TestChunkSizeInvariance: results do not depend on the chunk split
// threshold.
func TestChunkSizeInvariance(t *testing.T) {
	recs := testRecords(1200)
	q := STQuery{Rect: geo.NewRect(23.3, 37.3, 24.2, 38.2), From: testStart, To: testStart.Add(10 * 24 * time.Hour)}
	var want int
	for i, size := range []int64{4 << 10, 64 << 10, 1 << 20} {
		s, err := Open(Config{Approach: BslST, Shards: 4, ChunkMaxBytes: size})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Load(recs); err != nil {
			t.Fatal(err)
		}
		got := s.Count(q)
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("chunk size %d returned %d, want %d", size, got, want)
		}
	}
}
