package sharding

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/bson"
	"repro/internal/btree"
	"repro/internal/keyenc"
)

// Zone pins a range [Min, Max) of the encoded shard-key tuple space
// to one shard. Ranges may be expressed over a prefix of the shard
// key (e.g. only hilbertIndex of the {hilbertIndex, date} key), which
// is how Section 4.2.4 of the paper configures them.
type Zone struct {
	Name  string
	Min   []byte
	Max   []byte
	Shard int
}

// Contains reports whether the tuple falls in the zone.
func (z Zone) Contains(tuple []byte) bool {
	return bytes.Compare(z.Min, tuple) <= 0 && bytes.Compare(tuple, z.Max) < 0
}

// SetZones installs the zones: ranges are validated to be ordered and
// non-overlapping, chunks are split at zone boundaries so each chunk
// lies in at most one zone, and affected chunks migrate to their
// zone's shard (the cluster rebalancing the server performs when
// zones change on a sharded collection).
func (c *Cluster) SetZones(zones []Zone) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if !c.sharded {
		return fmt.Errorf("sharding: collection is not sharded")
	}
	sorted := make([]Zone, len(zones))
	copy(sorted, zones)
	slices.SortFunc(sorted, func(a, b Zone) int { return bytes.Compare(a.Min, b.Min) })
	for i, z := range sorted {
		if bytes.Compare(z.Min, z.Max) >= 0 {
			return fmt.Errorf("sharding: zone %q has empty range", z.Name)
		}
		if z.Shard < 0 || z.Shard >= len(c.shards) {
			return fmt.Errorf("sharding: zone %q names unknown shard %d", z.Name, z.Shard)
		}
		if i > 0 && bytes.Compare(sorted[i-1].Max, z.Min) > 0 {
			return fmt.Errorf("sharding: zones %q and %q overlap", sorted[i-1].Name, z.Name)
		}
	}
	// Split chunks at every zone boundary.
	for _, z := range sorted {
		c.splitAtLocked(z.Min)
		c.splitAtLocked(z.Max)
	}
	c.zones = sorted
	// Home every zoned chunk.
	for _, ch := range c.chunks {
		if home := c.zoneShardFor(ch); home >= 0 && home != ch.Shard {
			c.move(ch, home, c)
		}
	}
	// The homing migrations above are not journaled; replaying this one
	// record re-derives them.
	return c.journalCommit(opSetZones, encodeZones(sorted))
}

// Zones returns the installed zones.
func (c *Cluster) Zones() []Zone {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Zone, len(c.zones))
	copy(out, c.zones)
	return out
}

// splitAtLocked splits the chunk straddling the boundary (if any) so
// that the boundary becomes a chunk edge, through the size split's own
// body: both halves get their share of the bytes and cells rebuilt
// from their documents.
func (c *Cluster) splitAtLocked(boundary []byte) {
	for ci, ch := range c.chunks {
		if bytes.Compare(ch.Min, boundary) < 0 && bytes.Compare(boundary, ch.Max) < 0 {
			leftDocs := c.countRangeLocked(ch, ch.Min, boundary)
			c.splitAt(ci, bytes.Clone(boundary), leftDocs, ch.Docs, c)
			return
		}
	}
}

// countRangeLocked counts the chunk's documents with tuple in
// [lo, hi).
func (c *Cluster) countRangeLocked(ch *Chunk, lo, hi []byte) int {
	n := 0
	c.chunkTuples(ch)(func(t []byte) bool {
		if bytes.Compare(lo, t) <= 0 && bytes.Compare(t, hi) < 0 {
			n++
		}
		return true
	})
	return n
}

func boundInclude(k []byte) btree.Bound { return btree.Include(k) }
func boundExclude(k []byte) btree.Bound { return btree.Exclude(k) }

// ZonesFromSplits builds the paper's zone configuration from
// $bucketAuto split values over the leading shard-key field: one zone
// per bucket, covering [MinKey, s1), [s1, s2), …, [sk, MaxKey),
// assigned to shards in order (one zone per shard when len(splits) ==
// shards-1, which is how both Section 4.2.4 configurations are
// derived).
func ZonesFromSplits(field string, splits []any, shards int) []Zone {
	lo := keyenc.Encode(bson.MinKey)
	var zones []Zone
	for i, s := range splits {
		hi := keyenc.Encode(bson.Normalize(s))
		zones = append(zones, Zone{
			Name:  fmt.Sprintf("%s-zone%02d", field, i),
			Min:   lo,
			Max:   hi,
			Shard: i % shards,
		})
		lo = hi
	}
	zones = append(zones, Zone{
		Name:  fmt.Sprintf("%s-zone%02d", field, len(splits)),
		Min:   lo,
		Max:   keyenc.Encode(bson.MaxKey),
		Shard: len(splits) % shards,
	})
	return zones
}
