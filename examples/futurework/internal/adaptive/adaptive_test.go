package adaptive

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/core"
	"repro/internal/geo"
)

var (
	extent    = geo.NewRect(23.0, 37.0, 25.0, 39.0)
	testStart = time.Date(2018, 7, 1, 0, 0, 0, 0, time.UTC)
)

func loadStore(t *testing.T, a core.Approach, n int) *core.Store {
	t.Helper()
	s, err := core.Open(core.Config{
		Approach:         a,
		Shards:           4,
		ChunkMaxBytes:    16 << 10,
		AutoBalanceEvery: 512,
		DataExtent:       extent,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		rec := core.Record{
			Point: geo.Point{
				Lon: extent.Min.Lon + rng.Float64()*extent.Width(),
				Lat: extent.Min.Lat + rng.Float64()*extent.Height(),
			},
			Time: testStart.Add(time.Duration(i) * time.Minute),
		}
		if err := s.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	s.Cluster().Balance()
	return s
}

func TestAdvisorFieldSelection(t *testing.T) {
	cases := []struct {
		a    core.Approach
		want string
	}{
		{core.BslST, core.FieldDate},
		{core.Hil, core.FieldHilbert},
		{core.STHash, core.FieldSTHash},
	}
	for _, tc := range cases {
		s := loadStore(t, tc.a, 50)
		if got := NewAdvisor(s).Field(); got != tc.want {
			t.Errorf("%s: advised field = %s, want %s", tc.a, got, tc.want)
		}
	}
}

func TestSplitsWithoutWorkloadMatchBucketAuto(t *testing.T) {
	s := loadStore(t, core.Hil, 2000)
	adv := NewAdvisor(s)
	got, err := adv.Splits(4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Cluster().BucketAuto(core.FieldHilbert, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("splits %v vs bucketAuto %v", got, want)
	}
	for i := range got {
		// The advisor's quantile convention may differ by one rank;
		// values must be near-identical on uniform data.
		gi, _ := bson.Int64Value(got[i])
		wi, _ := bson.Int64Value(want[i])
		diffFrac := float64(gi-wi) / float64(wi+1)
		if diffFrac < -0.1 || diffFrac > 0.1 {
			t.Fatalf("split %d: %d vs bucketAuto %d", i, gi, wi)
		}
	}
}

func TestWorkloadSkewsSplits(t *testing.T) {
	s := loadStore(t, core.Hil, 2000)
	adv := NewAdvisor(s)
	// Hammer a small spatial region: the hot region's hilbert values
	// should be divided by more split points than under even-data
	// splitting.
	hot := core.STQuery{
		Rect: geo.NewRect(23.0, 37.0, 23.3, 37.3),
		From: testStart,
		To:   testStart.Add(2000 * time.Minute),
	}
	for i := 0; i < 50; i++ {
		adv.Observe(hot)
	}
	if adv.Queries() != 50 {
		t.Fatalf("Queries = %d", adv.Queries())
	}
	weighted, err := adv.Splits(4)
	if err != nil {
		t.Fatal(err)
	}
	even, err := s.Cluster().BucketAuto(core.FieldHilbert, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The advisor's objective: the maximum query-weighted mass of any
	// bucket must be no worse under the weighted splits than under
	// even-data splits (and strictly better for this skewed
	// workload).
	values, err := adv.fieldValues()
	if err != nil {
		t.Fatal(err)
	}
	maxMass := func(splits []any) int {
		masses := make([]int, len(splits)+1)
		for _, v := range values {
			b := 0
			for b < len(splits) && bson.Compare(v, splits[b]) >= 0 {
				b++
			}
			masses[b] += adv.weightOf(v)
		}
		max := 0
		for _, m := range masses {
			if m > max {
				max = m
			}
		}
		return max
	}
	if got, evenMax := maxMass(weighted), maxMass(even); got >= evenMax {
		t.Fatalf("weighted splits max bucket mass %d not below even splits %d", got, evenMax)
	}
}

func TestApplyInstallsZonesAndPreservesResults(t *testing.T) {
	s := loadStore(t, core.Hil, 1500)
	adv := NewAdvisor(s)
	q := core.STQuery{
		Rect: geo.NewRect(23.2, 37.2, 23.8, 37.8),
		From: testStart,
		To:   testStart.Add(1500 * time.Minute),
	}
	for i := 0; i < 10; i++ {
		adv.Observe(q)
	}
	before := s.Count(q)
	if err := adv.Apply(4); err != nil {
		t.Fatal(err)
	}
	if len(s.Cluster().Zones()) == 0 {
		t.Fatal("no zones installed")
	}
	if after := s.Count(q); after != before {
		t.Fatalf("adaptive zones changed results: %d -> %d", before, after)
	}
}

func TestSplitsValidation(t *testing.T) {
	s := loadStore(t, core.Hil, 10)
	adv := NewAdvisor(s)
	if _, err := adv.Splits(1); err == nil {
		t.Fatal("1 bucket accepted")
	}
	empty, err := core.Open(core.Config{Approach: core.Hil, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAdvisor(empty).Splits(4); err == nil {
		t.Fatal("empty store accepted")
	}
}
