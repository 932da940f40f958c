// Package adaptive implements a workload-aware zoning advisor — a
// concrete take on the paper's closing future-work item: "propose an
// adaptive, workload-aware mechanism for indexing and partitioning".
//
// The paper's static zoning (Section 4.2.4) splits the shard-key
// space into even-*data* buckets, which optimises for storage balance.
// A skewed query workload concentrates load on the shards owning the
// popular regions. The advisor records the shard-key ranges each
// query touches and derives zone boundaries that equalise *expected
// work* — data volume weighted by query touch frequency — so that hot
// regions are cut into more, smaller zones spread over more shards,
// while cold regions collapse into few zones.
package adaptive

import (
	"fmt"
	"sync"

	"repro/internal/bson"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/sharding"
	"repro/internal/storage"
)

// Advisor accumulates workload observations for one store and
// proposes zone configurations.
type Advisor struct {
	mu    sync.Mutex
	store *core.Store
	field string
	// touches counts, per observed query, the value intervals it
	// constrained the partition field with.
	touches []query.ValueInterval
	queries int
}

// NewAdvisor creates an advisor for the store. The advised field is
// the one the store zones on: hilbertIndex for the Hilbert
// approaches, stHash for ST-Hash, date for the baselines.
func NewAdvisor(s *core.Store) *Advisor {
	field := core.FieldDate
	if s.Grid() != nil {
		field = core.FieldHilbert
	} else if key, ok := s.Cluster().ShardKeyOf(); ok && len(key.Fields) > 0 && key.Fields[0] == core.FieldSTHash {
		field = core.FieldSTHash
	}
	return &Advisor{store: s, field: field}
}

// Field returns the partition field being advised.
func (a *Advisor) Field() string { return a.field }

// Observe records one query's constraints on the partition field.
// Queries that do not constrain the field (broadcasts) contribute no
// interval but still count toward the workload size.
func (a *Advisor) Observe(q core.STQuery) {
	f, _, _ := a.store.Filter(q)
	b := query.BoundsOf(f)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.queries++
	if set, ok := b.Intervals(a.field); ok {
		a.touches = append(a.touches, set...)
	}
}

// Queries returns the number of observed queries.
func (a *Advisor) Queries() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queries
}

// weightOf returns 1 + the number of observed intervals containing
// the value — the query-popularity weight of one document.
func (a *Advisor) weightOf(v any) int {
	w := 1
	for _, iv := range a.touches {
		if contains(iv, v) {
			w++
		}
	}
	return w
}

func contains(iv query.ValueInterval, v any) bool {
	lo := bson.Compare(v, iv.Lo)
	if lo < 0 || (lo == 0 && !iv.LoIncl) {
		return false
	}
	hi := bson.Compare(v, iv.Hi)
	if hi > 0 || (hi == 0 && !iv.HiIncl) {
		return false
	}
	return true
}

// Splits computes n-bucket boundaries over the partition field where
// every bucket carries roughly equal query-weighted data mass. With
// no observations it degrades to the static even-data bucketAuto
// split.
func (a *Advisor) Splits(n int) ([]any, error) {
	if n < 2 {
		return nil, fmt.Errorf("adaptive: need at least 2 buckets, got %d", n)
	}
	values, err := a.fieldValues()
	if err != nil {
		return nil, err
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("adaptive: store is empty")
	}
	bson.SortValues(values)
	a.mu.Lock()
	defer a.mu.Unlock()
	weights := make([]int, len(values))
	total := 0
	for i, v := range values {
		weights[i] = a.weightOf(v)
		total += weights[i]
	}
	var splits []any
	acc := 0
	next := 1
	for i, v := range values {
		acc += weights[i]
		if acc >= next*total/n && next < n {
			if len(splits) == 0 || bson.Compare(splits[len(splits)-1], v) != 0 {
				splits = append(splits, v)
			}
			next++
		}
	}
	return splits, nil
}

// Apply derives zones from the advisor's splits and installs them on
// the store's cluster (one zone per bucket, assigned to shards in
// order).
func (a *Advisor) Apply(shards int) error {
	splits, err := a.Splits(shards)
	if err != nil {
		return err
	}
	zones := sharding.ZonesFromSplits(a.field, splits, shards)
	return a.store.Cluster().SetZones(zones)
}

// fieldValues collects the partition-field value of every document in
// the cluster, reading from the raw form without full decoding.
func (a *Advisor) fieldValues() ([]any, error) {
	var out []any
	for _, sh := range a.store.Cluster().Shards() {
		sh.Coll.Store().Walk(func(_ storage.RecordID, raw []byte) bool {
			if v, ok := bson.Raw(raw).Lookup(a.field); ok {
				out = append(out, bson.Normalize(v))
			}
			return true
		})
	}
	return out, nil
}
