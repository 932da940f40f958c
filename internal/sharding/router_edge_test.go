package sharding

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/query"
)

// TestPoolMakespan pins the duration model: a width-w pool dispatching
// tasks to the earliest-free worker.
func TestPoolMakespan(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name  string
		durs  []time.Duration
		width int
		want  time.Duration
	}{
		{"empty", nil, 4, 0},
		{"width covers all: max", []time.Duration{3 * ms, 7 * ms, 2 * ms}, 3, 7 * ms},
		{"width exceeds: max", []time.Duration{3 * ms, 7 * ms}, 8, 7 * ms},
		{"sequential: sum", []time.Duration{3 * ms, 7 * ms, 2 * ms}, 1, 12 * ms},
		{"zero width clamps to 1", []time.Duration{3 * ms, 7 * ms}, 0, 10 * ms},
		// Two workers, dispatch order [4,3,2,1]: w0=4, w1=3, then 2
		// goes to w1 (free at 3) → 5, and 1 to w0 (free at 4) → 5.
		{"two waves", []time.Duration{4 * ms, 3 * ms, 2 * ms, 1 * ms}, 2, 5 * ms},
		// A long head task occupies one worker while the other drains
		// the rest: max(10, 1+1+1) = 10.
		{"straggler dominates", []time.Duration{10 * ms, ms, ms, ms}, 2, 10 * ms},
	}
	for _, tc := range cases {
		if got := poolMakespan(tc.durs, tc.width); got != tc.want {
			t.Errorf("%s: poolMakespan = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestDurationAccountsForWaves: with fewer workers than targeted
// shards the reported Duration must cover the pool's waves — at
// Parallel=1 it is at least the sum of the per-shard execution times,
// never just the slowest shard (the pre-wave bug).
func TestDurationAccountsForWaves(t *testing.T) {
	c, _ := loadCluster(t, 3000, hilbertDateKey(), smallOpts())
	f := rectSpec(geo.NewRect(23, 37, 24, 38))

	c.SetParallel(1)
	res := c.Query(f)
	if res.ShardsTargeted < 2 {
		t.Fatalf("broadcast targeted %d shards", res.ShardsTargeted)
	}
	var sum, max time.Duration
	for _, ps := range res.PerShard {
		sum += ps.Duration
		if ps.Duration > max {
			max = ps.Duration
		}
	}
	if res.Duration < sum {
		t.Fatalf("Parallel=1 Duration %v < per-shard sum %v", res.Duration, sum)
	}

	c.SetParallel(res.ShardsTargeted)
	wide := c.Query(f)
	var wideMax time.Duration
	for _, ps := range wide.PerShard {
		if ps.Duration > wideMax {
			wideMax = ps.Duration
		}
	}
	if wide.Duration < wideMax {
		t.Fatalf("full-width Duration %v < slowest shard %v", wide.Duration, wideMax)
	}
}

// TestOverlapsChunkBoundary pins the half-open range semantics at the
// exact chunk edges: a filter range whose Lo equals the chunk's Max
// (or whose Hi equals the chunk's Min) abuts the chunk and must not
// target it.
func TestOverlapsChunkBoundary(t *testing.T) {
	ch := &Chunk{Min: []byte{0x20}, Max: []byte{0x40}}
	cases := []struct {
		name string
		r    tupleRange
		want bool
	}{
		{"lo equals chunk max: abuts, no overlap", tupleRange{Lo: []byte{0x40}}, false},
		{"hi equals chunk min: abuts, no overlap", tupleRange{Hi: []byte{0x20}}, false},
		{"lo one below chunk max: overlaps", tupleRange{Lo: []byte{0x3f}}, true},
		{"hi one above chunk min: overlaps", tupleRange{Hi: []byte{0x21}}, true},
		{"range inside chunk", tupleRange{Lo: []byte{0x28}, Hi: []byte{0x30}}, true},
		{"chunk inside range", tupleRange{Lo: []byte{0x10}, Hi: []byte{0x50}}, true},
		{"fully below", tupleRange{Lo: []byte{0x00}, Hi: []byte{0x10}}, false},
		{"fully above", tupleRange{Lo: []byte{0x50}, Hi: []byte{0x60}}, false},
		{"both open: overlaps everything", tupleRange{}, true},
	}
	for _, tc := range cases {
		if got := tc.r.overlapsChunk(ch); got != tc.want {
			t.Errorf("%s: overlapsChunk = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRouteBoundaryValuesFindEveryDocument cross-checks routing at
// real chunk boundaries: for a sweep of equality and tight-range
// filters on the shard key, the sharded answer must match the
// unsharded reference collection — a doc sitting exactly on a chunk
// split must never be lost to an off-by-one in chunk targeting.
func TestRouteBoundaryValuesFindEveryDocument(t *testing.T) {
	c, ref := loadCluster(t, 3000, hilbertDateKey(), smallOpts())
	if len(c.chunks) < 4 {
		t.Fatalf("want a multi-chunk cluster, got %d chunks", len(c.chunks))
	}
	for hv := int64(0); hv < 4096; hv += 97 {
		for _, f := range []query.Filter{cellRange(hv, hv), cellWindow(hv, hv, baseTime, anyTo)} {
			res := c.Query(f)
			want := query.Execute(ref, f, nil).Stats.NReturned
			if res.TotalReturned != want {
				t.Fatalf("hv=%d filter=%v: sharded returned %d, reference %d",
					hv, f, res.TotalReturned, want)
			}
		}
	}
}

// TestZeroShardsTargeted: routes that target no chunk at all — an
// impossible shard-key range, and a broadcast over a cluster whose
// chunks hold no documents — must yield a clean empty result, not a
// degenerate scatter.
func TestZeroShardsTargeted(t *testing.T) {
	t.Run("impossible range", func(t *testing.T) {
		c, _ := loadCluster(t, 500, hilbertDateKey(), smallOpts())
		f := cellRange(int64(100), int64(50))
		res := c.Query(f)
		if res.ShardsTargeted != 0 || len(res.Docs) != 0 || res.TotalReturned != 0 {
			t.Fatalf("impossible range scattered: %+v", res)
		}
		if res.Partial || res.Err != nil || res.Broadcast {
			t.Fatalf("impossible range degraded: %+v", res)
		}
	})
	t.Run("empty cluster broadcast", func(t *testing.T) {
		c := NewCluster(smallOpts())
		if err := c.ShardCollection(hilbertDateKey()); err != nil {
			t.Fatal(err)
		}
		res := c.Query(rectSpec(geo.NewRect(23, 37, 24, 38)))
		if res.ShardsTargeted != 0 || len(res.Docs) != 0 {
			t.Fatalf("empty cluster scattered: %+v", res)
		}
		if !res.Broadcast {
			t.Fatal("geo filter on a sharded cluster should still classify as broadcast")
		}
	})
}

// TestQueryBatchEmpty: a nil and a zero-length batch are valid no-ops
// under both policies.
func TestQueryBatchEmpty(t *testing.T) {
	c, _ := loadCluster(t, 200, hilbertDateKey(), smallOpts())
	for _, p := range []Policy{FailFast, AllowPartial} {
		t.Run(fmt.Sprint(p), func(t *testing.T) {
			r := Resilience{Policy: p}
			c.SetResilience(r)
			defer c.SetResilience(Resilience{})
			for _, fs := range [][]query.Filter{nil, {}} {
				results := c.QueryBatchOpts(fs, nil)
				if len(results) != 0 {
					t.Fatalf("empty batch returned %d results", len(results))
				}
			}
		})
	}
}
