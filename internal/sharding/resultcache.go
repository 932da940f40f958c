package sharding

// Epoch-invalidated result cache: a fixed-memory, power-of-two-sharded
// cache sitting in front of the router's scatter-gather. The key is the
// canonical wire encoding of (filter, pushed-down opts) — the bytes of
// the shard-facing wire.Query, so two logically identical queries key
// identically and two different ones never do. A hit is valid only if
// (a) the filter still routes to the exact shard set the entry was
// computed from and (b) none of those shards' content epochs moved;
// every applied write batch, chunk split, migration and retention drop
// bumps the owning shards' epochs under the cluster write lock, so a
// cached result can never be served across a content change (zero
// stale hits). Only complete results are cached: partial answers and
// failed shards bypass the cache.

import (
	"container/list"
	"hash/maphash"
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
	seed        maphash.Seed
	maxPerShard int64
	hits        atomic.Int64
	misses      atomic.Int64
}

func newResultCache(maxBytes int64) *resultCache {
	c := &resultCache{seed: maphash.MakeSeed(), maxPerShard: maxBytes / resultCacheWays}
	if c.maxPerShard < 1 {
		c.maxPerShard = 1
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*list.Element)
		c.shards[i].lru = list.New()
	}
	return c
}

// shardFor picks the key's cache way; only shard selection depends on
// the hash, so a per-cache random seed is fine.
func (c *resultCache) shardFor(key []byte) *rcShard {
	return &c.shards[maphash.Bytes(c.seed, key)&(resultCacheWays-1)]
}

// resultCacheKey appends the canonical cache key for (filter, opts) to
// dst: the encoding of the shard-facing wire.Query carrying them, with
// its length-prefixed strings. ok is false for filters the wire codec
// cannot encode — those queries simply bypass the cache.
func resultCacheKey(dst []byte, f query.Filter, opts query.Opts) ([]byte, bool) {
	msg := wire.Query{Limit: int64(opts.Limit), OrderBy: opts.OrderBy, Desc: opts.Desc, Agg: opts.Agg, Filter: f}
	b, err := msg.Encode(dst)
	return b, err == nil
}

// keyBufs recycles the buffers probe builds keys in, so a hit
// allocates no key. A fresh one holds a dashboard query's (~0.9 KB).
var keyBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 1<<10)
	return &b
}}

// probe looks (f, opts) up for the current route and epochs. On a miss
// it also returns the key a complete answer is to be put under ("" for
// a filter the wire codec cannot encode).
func (c *resultCache) probe(f query.Filter, opts query.Opts, targets []int, epochs []uint64) (*RoutedResult, string) {
	buf := keyBufs.Get().(*[]byte)
	defer keyBufs.Put(buf)
	key, ok := resultCacheKey((*buf)[:0], f, opts)
	if !ok {
		return nil, ""
	}
	*buf = key
	if hit := c.get(key, targets, epochs); hit != nil {
		return hit, ""
	}
	return nil, string(key)
}

// get returns a copy of the cached result when the entry exists and is
// still valid against the current route and epochs; nil otherwise. An
// entry whose epochs moved is deleted — epochs are monotonic, so it
// can never validate again.
func (c *resultCache) get(key []byte, targets []int, epochs []uint64) *RoutedResult {
	sh := c.shardFor(key)
	sh.mu.Lock()
	el, ok := sh.entries[string(key)]
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil
	}
	e := el.Value.(*rcEntry)
	if !intsEqual(e.targets, targets) || !epochsEqual(e.epochs, epochs) {
		sh.lru.Remove(el)
		delete(sh.entries, e.key)
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
func (c *resultCache) peek(key []byte, targets []int, epochs []uint64) bool {
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[string(key)]
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
	sh := &c.shards[maphash.String(c.seed, key)&(resultCacheWays-1)] // shardFor's way
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
