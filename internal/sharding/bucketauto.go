package sharding

import (
	"fmt"

	"repro/internal/bson"
	"repro/internal/storage"
)

// BucketAuto computes n even-frequency bucket boundaries over a field
// across the whole sharded collection, like the $bucketAuto
// aggregation stage the paper uses to derive zone ranges (Section
// 4.2.4). It returns the n-1 inner split values: bucket i is
// [split[i-1], split[i]) with the outermost buckets open-ended.
// Duplicate split values (heavy spatial skew) are collapsed, so fewer
// than n-1 values may come back.
func (c *Cluster) BucketAuto(field string, n int) ([]any, error) {
	if n < 2 {
		return nil, fmt.Errorf("sharding: bucketAuto needs at least 2 buckets, got %d", n)
	}
	var values []any
	for _, s := range c.shards {
		s.Coll.Store().Walk(func(_ storage.RecordID, raw []byte) bool {
			// A missing field buckets as null.
			values = append(values, bson.Raw(raw).Get(field))
			return true
		})
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("sharding: bucketAuto over empty collection")
	}
	bson.SortValues(values)
	var splits []any
	for i := 1; i < n; i++ {
		v := values[i*len(values)/n]
		if len(splits) > 0 && bson.Compare(splits[len(splits)-1], v) == 0 {
			continue // collapse duplicate boundaries under heavy skew
		}
		splits = append(splits, v)
	}
	return splits, nil
}
