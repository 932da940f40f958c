package sharding

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/query"
)

// TestLimitedWalkMatchesUnlimited: a limited document query walks its
// shards in turn, each asked only for what the shards before it left
// open. Against the unlimited answer under the same fault:
//   - a natural-order answer is a prefix of the concatenation;
//   - an ordered answer is the stable sort-then-truncate of it;
//   - the answer, per-shard stats and error are the same at widths 1,
//     2 and 8;
//   - the answer is partial exactly when the walk asked the downed
//     shard, and the shards after a met quota are skipped, not failed.
//
// It runs healthy, and with one downed shard under AllowPartial and
// FailFast: the first shard the walk asks (inside every quota) and the
// last (past the small ones).
func TestLimitedWalkMatchesUnlimited(t *testing.T) {
	c, _ := loadCluster(t, 3000, hilbertDateKey(), smallOpts())
	defer func() { c.SetConn(nil); c.SetResilience(Resilience{}); c.SetParallel(1) }()
	walked := 0
	for _, f := range stressFilters() {
		c.SetConn(nil)
		c.SetResilience(Resilience{})
		targets := c.Query(f).TargetedShards
		if len(targets) < 3 {
			continue
		}
		walked++
		for _, down := range []int{-1, targets[0], targets[len(targets)-1]} {
			fc := NewFaultConn(nil, 5)
			if down >= 0 {
				fc.SetFault(down, FaultSpec{Down: true})
			}
			c.SetConn(fc)
			c.SetResilience(Resilience{Policy: AllowPartial})
			c.SetParallel(1)
			base := c.QueryOpts(f, query.Opts{})
			if base.Partial != (down >= 0) {
				t.Fatalf("%s down=%d: unlimited partial=%v", f, down, base.Partial)
			}
			for _, policy := range []Policy{AllowPartial, FailFast} {
				c.SetResilience(Resilience{Policy: policy})
				n := base.TotalReturned
				for _, limit := range []int{1, 7, n - 1, n + 5} {
					if limit < 1 {
						continue
					}
					for _, o := range []query.Opts{
						{Limit: limit},
						{Limit: limit, OrderBy: "date"},
						{Limit: limit, OrderBy: "date", Desc: true},
					} {
						label := fmt.Sprintf("%s down=%d policy=%v %+v", f, down, policy, o)
						checkWalk(t, c, f, o, base, down, label)
					}
				}
			}
		}
	}
	if walked == 0 {
		t.Fatal("no filter targets three shards")
	}
}

// checkWalk runs one limited query at widths 1, 2 and 8 and holds it to
// the unlimited answer base (same fault), and to itself across widths.
func checkWalk(t *testing.T, c *Cluster, f query.Filter, o query.Opts, base *RoutedResult, down int, label string) {
	t.Helper()
	// Which shards the walk must ask: all of them when ordered; in
	// natural order, each while the shards before it left the quota
	// unmet (a failed shard adds nothing).
	asked := make([]bool, len(base.TargetedShards))
	held := 0
	for i := range asked {
		asked[i] = o.OrderBy != "" || held < o.Limit
		if asked[i] {
			held += base.PerShard[i].NReturned
		}
	}
	failFast := c.opts.Resilience.Policy == FailFast
	wantPartial, skipped := false, 0
	for i, sid := range base.TargetedShards {
		if sid == down && asked[i] {
			wantPartial = true
			if failFast {
				// FailFast ends the walk at the failure.
				for j := i + 1; j < len(asked); j++ {
					asked[j] = false
				}
			}
		}
	}
	for i := range asked {
		if !asked[i] {
			skipped++
		}
	}
	var first *RoutedResult
	for _, width := range []int{1, 2, 8} {
		c.SetParallel(width)
		res := c.QueryOpts(f, o)
		if res.Partial != wantPartial || res.ShardsSkipped != skipped {
			t.Fatalf("%s width=%d: partial=%v skipped=%d, want %v and %d", label, width, res.Partial, res.ShardsSkipped, wantPartial, skipped)
		}
		for i, st := range res.PerShard {
			if !asked[i] && !reflect.DeepEqual(st, query.ExecStats{}) {
				t.Fatalf("%s width=%d: shard %d was never asked but reports %+v", label, width, res.TargetedShards[i], st)
			}
		}
		if wantPartial && failFast {
			if res.Err == nil || res.Docs != nil {
				t.Fatalf("%s width=%d: a FailFast walk that asked the downed shard answered (err %v)", label, width, res.Err)
			}
		} else {
			want := base.Docs
			if o.OrderBy != "" {
				want = stableSortByDate(want, o.Desc)
			}
			want = want[:min(len(want), o.Limit)]
			if !slices.EqualFunc(res.Docs, want, func(a, b bson.Raw) bool { return bytes.Equal(a, b) }) {
				t.Fatalf("%s width=%d: %d documents, not the %d the unlimited answer leads with", label, width, len(res.Docs), len(want))
			}
		}
		if first == nil {
			first = res
			continue
		}
		if !reflect.DeepEqual(stripDurations(res.PerShard), stripDurations(first.PerShard)) ||
			!reflect.DeepEqual(res.FailedShards, first.FailedShards) || (res.Err == nil) != (first.Err == nil) {
			t.Fatalf("%s: width %d differs from width 1: %+v vs %+v", label, width, res.PerShard, first.PerShard)
		}
	}
}

// stableSortByDate is docs stably sorted by their date, reversed for
// desc: ties keep their order either way.
func stableSortByDate(docs []bson.Raw, desc bool) []bson.Raw {
	out := slices.Clone(docs)
	slices.SortStableFunc(out, func(a, b bson.Raw) int {
		c := a.Get("date").(time.Time).Compare(b.Get("date").(time.Time))
		if desc {
			c = -c
		}
		return c
	})
	return out
}

// stripDurations is the per-shard stats without their wall-clock
// durations.
func stripDurations(stats []query.ExecStats) []query.ExecStats {
	out := slices.Clone(stats)
	for i := range out {
		out[i].Duration = 0
	}
	return out
}

// TestMergeBest: the walk's running best keys are the first limit of
// the sorted union, both directions.
func TestMergeBest(t *testing.T) {
	k := func(s ...string) [][]byte {
		out := make([][]byte, len(s))
		for i, v := range s {
			out[i] = []byte(v)
		}
		return out
	}
	for _, tc := range []struct {
		a, b  [][]byte
		limit int
		desc  bool
		want  [][]byte
	}{
		{k("a", "c", "e"), k("b", "c", "d"), 4, false, k("a", "b", "c", "c")},
		{k("e", "c", "a"), k("d", "c", "b"), 3, true, k("e", "d", "c")},
		{nil, k("x", "y"), 5, false, k("x", "y")},
		{k("x"), nil, 1, false, k("x")},
	} {
		got := mergeBest(nil, tc.a, tc.b, tc.limit, tc.desc)
		if !slices.EqualFunc(got, tc.want, bytes.Equal) {
			t.Errorf("mergeBest(%q, %q, %d, %v) = %q, want %q", tc.a, tc.b, tc.limit, tc.desc, got, tc.want)
		}
	}
}
