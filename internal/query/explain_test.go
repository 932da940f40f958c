package query

import (
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
)

func TestExplainReportsWinnerAndCandidates(t *testing.T) {
	c := newCollWithIndexes(t, 1500)
	f := rectWindow(geo.NewRect(23.6, 37.8, 23.9, 38.1), baseTime, baseTime.Add(24*time.Hour))
	ex := Explain(c, f, nil)
	if ex.CacheHit {
		t.Fatal("first explain hit the cache")
	}
	if ex.Winning.IndexName == "" {
		t.Fatal("no winning plan")
	}
	if len(ex.Rejected)+1 < 2 {
		t.Fatalf("expected multiple candidates, rejected = %v", ex.Rejected)
	}
	if len(ex.Trials) == 0 {
		t.Fatal("no trials recorded")
	}
	if ex.Execution.NReturned == 0 {
		t.Fatal("execution returned nothing")
	}
	out := ex.String()
	for _, want := range []string{"winningPlan", "rejectedPlan", "trial:", "executionStats"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
	// Second explain of the same shape reports the cache hit.
	ex2 := Explain(c, f, nil)
	if !ex2.CacheHit {
		t.Fatal("second explain missed the cache")
	}
	if ex2.Execution.NReturned != ex.Execution.NReturned {
		t.Fatal("cached plan changed results")
	}
}

func TestExplainSkipScanVisible(t *testing.T) {
	c := newCollWithIndexes(t, 500)
	// Narrow hilbert range over a wide date window: the compound
	// index wins and must skip-scan the dates inside the range.
	f := cellWindow(int64(10000), int64(20000), baseTime, baseTime.Add(10*24*time.Hour))
	ex := Explain(c, f, nil)
	if ex.Winning.IndexName != "{hilbertIndex: 1, date: 1}" {
		t.Fatalf("winner = %s", ex.Winning.IndexName)
	}
	if !ex.Winning.SkipScan {
		t.Fatal("skip-scan not reported")
	}
}

func TestExplainCollscan(t *testing.T) {
	c := buildCollection(t, 100)
	ex := Explain(c, window(baseTime, baseTime.Add(24*time.Hour)), nil)
	if ex.Winning.IndexName != CollScanName {
		t.Fatalf("winner = %s", ex.Winning.IndexName)
	}
	if !strings.Contains(ex.String(), CollScanName) {
		t.Fatal("collscan not rendered")
	}
}
