package core

import (
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/sharding"
)

func testQueries() []STQuery {
	rect := geo.NewRect(23.2, 37.2, 24.1, 38.4)
	var qs []STQuery
	for _, w := range []time.Duration{time.Hour, 24 * time.Hour, 7 * 24 * time.Hour} {
		qs = append(qs, STQuery{Rect: rect, From: testStart, To: testStart.Add(w)})
	}
	return qs
}

func queryCounts(s *Store, qs []STQuery) []int {
	var out []int
	for _, q := range qs {
		out = append(out, s.Query(q).Stats.NReturned)
	}
	return out
}

// TestDurableStoreMatchesInMemory: a durable store freshly loaded from
// the same records is indistinguishable from the in-memory store —
// identical fingerprint and query results — and OpenDir recovers it in
// a new "process" from the manifest alone, with and without a
// checkpoint in between.
func TestDurableStoreMatchesInMemory(t *testing.T) {
	for _, a := range []Approach{Hil, BslST} {
		t.Run(a.String(), func(t *testing.T) {
			recs := testRecords(2000)
			qs := testQueries()

			mem := openStore(t, a, 3)
			if err := mem.Load(recs); err != nil {
				t.Fatal(err)
			}
			wantDocs, wantSum := mem.Fingerprint()
			wantCounts := queryCounts(mem, qs)

			dir := t.TempDir()
			s, err := Open(Config{
				Approach:         a,
				Shards:           3,
				ChunkMaxBytes:    8 << 10,
				AutoBalanceEvery: 256,
				DataExtent:       testExtent,
				Dir:              dir,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !s.Durable() {
				t.Fatal("store with Dir is not durable")
			}
			if err := s.Load(recs); err != nil {
				t.Fatal(err)
			}
			docs, sum := s.Fingerprint()
			if docs != wantDocs || sum != wantSum {
				t.Fatalf("durable fresh load fingerprint %d/%016x, want %d/%016x",
					docs, sum, wantDocs, wantSum)
			}

			// Journal-only reopen: crash without Close or Checkpoint.
			r, err := OpenDir(dir, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if got := queryCounts(r, qs); !equalInts(got, wantCounts) {
				t.Fatalf("journal-only reopen query counts %v, want %v", got, wantCounts)
			}
			if docs, sum := r.Fingerprint(); docs != wantDocs || sum != wantSum {
				t.Fatalf("journal-only reopen fingerprint %d/%016x, want %d/%016x",
					docs, sum, wantDocs, wantSum)
			}

			// Checkpoint, then reopen from the snapshot.
			if err := r.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			r2, err := OpenDir(dir, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if got := queryCounts(r2, qs); !equalInts(got, wantCounts) {
				t.Fatalf("snapshot reopen query counts %v, want %v", got, wantCounts)
			}
			if cfg := r2.Config(); cfg.Approach != a || cfg.Shards != 3 {
				t.Fatalf("manifest round trip lost config: %+v", cfg)
			}

			// The reopened store keeps accepting writes with fresh _ids.
			if err := r2.Insert(testRecords(1)[0]); err != nil {
				t.Fatalf("insert after reopen: %v", err)
			}
			if docs, _ := r2.Fingerprint(); docs != wantDocs+1 {
				t.Fatalf("insert after reopen: %d docs, want %d", docs, wantDocs+1)
			}
			r2.Close()
		})
	}
}

// TestOpenDirKeepsRuntimeFields: a reopened store takes the structural
// configuration from its manifest and every other field from the
// caller's Config — none of them is dropped on the way, whether the
// directory recovers from the journal alone or from a snapshot.
func TestOpenDirKeepsRuntimeFields(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Approach: Hil, Shards: 3, DataExtent: testExtent, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(testRecords(500)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	conn := sharding.NewFaultConn(nil, 1)
	reopen := func(stage string) *Store {
		t.Helper()
		r, err := OpenDir(dir, Config{
			Shards:           7, // structural: the manifest's 3 wins
			ResultCacheBytes: 1 << 20,
			Resilience:       sharding.Resilience{Policy: sharding.AllowPartial},
			Conn:             conn,
		})
		if err != nil {
			t.Fatal(err)
		}
		opts := r.Cluster().Options()
		if opts.Shards != 3 || r.Config().Approach != Hil {
			t.Fatalf("%s: structural config not from the manifest: shards %d, approach %v",
				stage, opts.Shards, r.Config().Approach)
		}
		if opts.ResultCacheBytes != 1<<20 || opts.Resilience.Policy != sharding.AllowPartial ||
			opts.Conn != sharding.ShardConn(conn) {
			t.Fatalf("%s: runtime fields dropped: cache %d, policy %v, conn %T",
				stage, opts.ResultCacheBytes, opts.Resilience.Policy, opts.Conn)
		}
		q := testQueries()[2]
		r.Query(q)
		if !r.Query(q).Stats.CacheHit {
			t.Fatalf("%s: repeated query missed the result cache", stage)
		}
		return r
	}
	r := reopen("journal-only reopen")
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	reopen("snapshot reopen").Close()
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
