package sharding

// Epoch-invalidated result cache: a fixed-memory, power-of-two-sharded
// cache sitting in front of the router's scatter-gather. The key is the
// canonical wire encoding of (filter, pushed-down opts) — the same
// bytes the network protocol ships, so two logically identical queries
// key identically. A hit is valid only if (a) the filter still routes
// to the exact shard set the entry was computed from and (b) none of
// those shards' content epochs moved; every applied write batch, chunk
// split, migration and retention drop bumps the owning shards' epochs
// under the cluster write lock, so a cached result can never be served
// across a content change (zero stale hits). Only complete results are
// cached: partial answers and failed shards bypass the cache.

import (
	"container/list"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"repro/internal/bson"
	"repro/internal/query"
	"repro/internal/wire"
)

// resultCacheWays is the number of independent cache shards (power of
// two): concurrent queries on different keys lock different shards.
const resultCacheWays = 16

// rcEntry is one cached routed result. Entries are immutable after
// insertion; get hands out shallow copies of the prototype whose doc
// bytes alias the entry's privately owned buffer.
type rcEntry struct {
	key     string
	targets []int
	epochs  []uint64
	size    int64
	proto   RoutedResult
}

type rcShard struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recent
	bytes   int64
}

type resultCache struct {
	shards      [resultCacheWays]rcShard
	maxPerShard int64
	hits        atomic.Int64
	misses      atomic.Int64
}

func newResultCache(maxBytes int64) *resultCache {
	c := &resultCache{maxPerShard: maxBytes / resultCacheWays}
	if c.maxPerShard < 1 {
		c.maxPerShard = 1
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*list.Element)
		c.shards[i].lru = list.New()
	}
	return c
}

// rcHash is FNV-1a over the key — only shard selection depends on it.
func rcHash(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func (c *resultCache) shardFor(key string) *rcShard {
	return &c.shards[rcHash(key)&(resultCacheWays-1)]
}

// resultCacheKey builds the canonical cache key for (filter, opts).
// ok is false for filters the wire codec cannot encode — those queries
// simply bypass the cache.
func resultCacheKey(f query.Filter, opts query.Opts) (string, bool) {
	b, err := wire.AppendFilter(nil, f)
	if err != nil {
		return "", false
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(opts.Limit))
	b = append(b, byte(len(opts.OrderBy)))
	b = append(b, opts.OrderBy...)
	if opts.Desc {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = append(b, byte(opts.Agg.Kind), opts.Agg.Shift, byte(len(opts.Agg.Field)))
	b = append(b, opts.Agg.Field...)
	return string(b), true
}

// get returns a copy of the cached result when the entry exists and is
// still valid against the current route and epochs; nil otherwise. An
// entry whose epochs moved is deleted — epochs are monotonic, so it
// can never validate again.
func (c *resultCache) get(key string, targets []int, epochs []uint64) *RoutedResult {
	sh := c.shardFor(key)
	sh.mu.Lock()
	el, ok := sh.entries[key]
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil
	}
	e := el.Value.(*rcEntry)
	if !intsEqual(e.targets, targets) || !epochsEqual(e.epochs, epochs) {
		sh.lru.Remove(el)
		delete(sh.entries, key)
		sh.bytes -= e.size
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil
	}
	sh.lru.MoveToFront(el)
	out := e.proto
	out.CacheHit = true
	sh.mu.Unlock()
	c.hits.Add(1)
	return &out
}

// peek reports whether get would hit, without touching LRU order or
// the hit/miss counters (Explain's probe).
func (c *resultCache) peek(key string, targets []int, epochs []uint64) bool {
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[key]
	if !ok {
		return false
	}
	e := el.Value.(*rcEntry)
	return intsEqual(e.targets, targets) && epochsEqual(e.epochs, epochs)
}

// put stores a deep copy of the result under the key, tagged with the
// targets and epochs it was computed against, and evicts from the LRU
// tail until the shard fits its budget. Doc bytes are copied into one
// private flat buffer: the store's arena may reuse the original memory
// after later deletes, and a cache must outlive them.
func (c *resultCache) put(key string, targets []int, epochs []uint64, res *RoutedResult) {
	e := &rcEntry{
		key:     key,
		targets: append([]int(nil), targets...),
		epochs:  append([]uint64(nil), epochs...),
		proto:   copyResult(res),
	}
	e.size = entrySize(e)
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[key]; ok {
		old := el.Value.(*rcEntry)
		sh.bytes -= old.size
		sh.lru.Remove(el)
		delete(sh.entries, key)
	}
	if e.size > c.maxPerShard {
		return // larger than the whole budget: never cache
	}
	sh.entries[key] = sh.lru.PushFront(e)
	sh.bytes += e.size
	for sh.bytes > c.maxPerShard {
		back := sh.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*rcEntry)
		sh.lru.Remove(back)
		delete(sh.entries, victim.key)
		sh.bytes -= victim.size
	}
}

// stats returns the cumulative hit/miss counters.
func (c *resultCache) stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// copyResult deep-copies the cache-relevant parts of a routed result.
func copyResult(res *RoutedResult) RoutedResult {
	out := *res
	out.TargetedShards = append([]int(nil), res.TargetedShards...)
	out.PerShard = append([]query.ExecStats(nil), res.PerShard...)
	out.FailedShards = nil
	out.RetriesPerShard = nil
	if len(res.Docs) > 0 {
		flat := 0
		for _, d := range res.Docs {
			flat += len(d)
		}
		buf := make([]byte, 0, flat)
		out.Docs = make([]bson.Raw, 0, len(res.Docs))
		for _, d := range res.Docs {
			start := len(buf)
			buf = append(buf, d...)
			out.Docs = append(out.Docs, buf[start:len(buf):len(buf)])
		}
	}
	if res.Agg != nil {
		agg := *res.Agg
		if len(res.Agg.Distinct) > 0 {
			flat := 0
			for _, v := range res.Agg.Distinct {
				flat += len(v)
			}
			buf := make([]byte, 0, flat)
			agg.Distinct = make([][]byte, 0, len(res.Agg.Distinct))
			for _, v := range res.Agg.Distinct {
				start := len(buf)
				buf = append(buf, v...)
				agg.Distinct = append(agg.Distinct, buf[start:len(buf):len(buf)])
			}
		}
		agg.Cells = append([]query.CellCount(nil), res.Agg.Cells...)
		out.Agg = &agg
	}
	return out
}

// entrySize estimates an entry's memory footprint for the budget.
func entrySize(e *rcEntry) int64 {
	n := int64(len(e.key)) + int64(len(e.targets))*8 + int64(len(e.epochs))*8 + 256
	for _, d := range e.proto.Docs {
		n += int64(len(d)) + 24
	}
	if a := e.proto.Agg; a != nil {
		for _, v := range a.Distinct {
			n += int64(len(v)) + 24
		}
		n += int64(len(a.Cells)) * 16
	}
	n += int64(len(e.proto.PerShard)) * 64
	return n
}

func intsEqual(a, b []int) bool {
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

func epochsEqual(a, b []uint64) bool {
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
