package query

import (
	"context"
	"time"

	"repro/internal/bson"
	"repro/internal/btree"
	"repro/internal/collection"
	"repro/internal/index"
	"repro/internal/keyenc"
	"repro/internal/storage"
)

// ExecStats are the per-execution counters that the paper's
// evaluation metrics are computed from.
type ExecStats struct {
	// KeysExamined counts index keys inspected, the server's
	// totalKeysExamined.
	KeysExamined int
	// DocsExamined counts documents fetched from storage, the
	// server's totalDocsExamined.
	DocsExamined int
	// DocsRefined counts the fetched documents checked against the
	// plan's residual predicate. A document whose index key lies in an
	// interior cell (see Containment) is fetched but not refined.
	DocsRefined int
	// NReturned counts documents returned to the caller.
	NReturned int
	// IndexUsed names the winning access path (or COLLSCAN).
	IndexUsed string
	// Duration is the wall-clock execution time, excluding planning.
	Duration time.Duration
}

// Add accumulates counters (durations take the maximum, matching the
// scatter-gather model where shards work in parallel).
func (s *ExecStats) Add(o ExecStats) {
	s.KeysExamined += o.KeysExamined
	s.DocsExamined += o.DocsExamined
	s.DocsRefined += o.DocsRefined
	s.NReturned += o.NReturned
	if o.Duration > s.Duration {
		s.Duration = o.Duration
	}
}

// Result is the outcome of a query execution. Docs hold the matching
// documents in their stored binary form — the executor never decodes
// a result, like a server shipping raw documents to the client; use
// bson.Raw's Lookup/Get for field access or Decode for the full
// document.
//
// Ownership: the Docs slice (and Keys, when present) is owned by the
// caller, but the document bytes are zero-copy views of the shard's
// immutable storage records. Within a process that is safe — records
// are never mutated in place — and the sharded router's trust
// boundary (ShardConn) is where a real deployment would serialize
// them over the wire.
type Result struct {
	Docs []bson.Raw
	// Keys are the encoded sort keys of Docs, index-aligned, present
	// only for ordered executions (Opts.OrderBy): the router's k-way
	// merge compares these instead of re-extracting field values.
	Keys [][]byte
	// Agg is the partial aggregate of an Opts.Agg execution; Docs and
	// Keys are empty then (the whole point: numbers travel, documents
	// do not). Unlike Docs, the aggregate owns all of its memory.
	Agg   *AggResult
	Stats ExecStats
	// Trials report the multi-planner outcomes when planning ran
	// trials for this execution.
	Trials []TrialResult
}

// Execute plans and runs the filter against the collection, returning
// the matching documents and execution statistics. The reported
// duration includes planning; after the first execution of a query
// shape the plan cache makes planning a bounds rebuild without
// trials, like the server's warm state.
func Execute(coll *collection.Collection, f Filter, cfg *Config) *Result {
	// context.Background never cancels, so the error path is dead.
	res, _ := ExecuteOptsCtx(context.Background(), coll, f, cfg, Opts{})
	return res
}

// ExecuteCtx is Execute with cooperative cancellation: the scan checks
// ctx periodically (every cancelCheckWorks work units, so the
// happy-path cost is one nil comparison) and stops mid-scan once the
// context is cancelled or its deadline passes, returning ctx's error.
// The sharded router threads per-query and per-shard deadlines down
// through this.
func ExecuteCtx(ctx context.Context, coll *collection.Collection, f Filter, cfg *Config) (*Result, error) {
	return ExecuteOptsCtx(ctx, coll, f, cfg, Opts{})
}

// ExecuteOpts is Execute with pushed-down execution options.
func ExecuteOpts(coll *collection.Collection, f Filter, cfg *Config, opts Opts) *Result {
	res, _ := ExecuteOptsCtx(context.Background(), coll, f, cfg, opts)
	return res
}

// ExecuteOptsCtx executes the filter with pushed-down options. A
// natural-order limit stops the index scan as soon as the quota is
// met. An ordered one scans every key, and when the plan's index holds
// the order-by field it fetches documents in key order until the quota
// is met (see fetchSorted); otherwise it refines every match and keeps
// the best k. Either way the returned documents are byte-identical to
// running the query unlimited, stable-sorting and truncating: plan
// selection ignores the options, so the scan order is the same.
//
// A filter with one candidate plan runs it directly: the plan cache
// serves only where a trial chose between plans.
func ExecuteOptsCtx(ctx context.Context, coll *collection.Collection, f Filter, cfg *Config, opts Opts) (*Result, error) {
	start := time.Now()
	p := Prepare(f)
	s := getScratch()
	defer putScratch(s)
	e := exec{ctx: ctx, coll: coll, p: &s.only, collect: true, opts: opts, s: s}
	var trials []TrialResult
	choice := !onlyPlan(coll, p, &s.only)
	if choice {
		if plan, budget, entry, ok := cachedPlan(coll, p); ok {
			e.p, e.maxWorks = plan, budget
			e.contain(cfg, p)
			completed := e.run()
			if e.ctxErr != nil {
				return nil, e.ctxErr
			}
			if completed {
				return e.result(start, nil), nil
			}
			// The cached plan blew its works budget: evict and replan,
			// like the server. The eviction is conditional on the entry
			// we ran with, so concurrent trials of the same shape never
			// evict each other's fresh winners.
			evictPlan(coll, p, entry)
			e = exec{ctx: ctx, coll: coll, collect: true, opts: opts, s: s}
		}
		e.p, trials = ChoosePlan(coll, p, cfg)
	}
	e.contain(cfg, p)
	e.run()
	if e.ctxErr != nil {
		return nil, e.ctxErr
	}
	if choice {
		rememberPlan(coll, p, e.p, e.stats.KeysExamined+e.stats.DocsExamined)
	}
	return e.result(start, trials), nil
}

// result is the completed execution's answer.
func (e *exec) result(start time.Time, trials []TrialResult) *Result {
	res := e.s.buildResult(e.opts)
	if !e.opts.Agg.Active() {
		e.stats.NReturned = len(res.Docs)
	}
	e.stats.Duration = time.Since(start)
	e.stats.IndexUsed = e.p.Name()
	res.Stats = e.stats
	res.Trials = trials
	return res
}

// MatchingRecords plans and runs the filter, returning the record ids
// of the matching documents (the write path's lookup step: deletes
// and updates resolve their targets through this).
func MatchingRecords(coll *collection.Collection, f Filter, cfg *Config) []storage.RecordID {
	plan, _ := ChoosePlan(coll, f, cfg)
	s := getScratch()
	defer putScratch(s)
	var ids []storage.RecordID
	e := exec{ctx: context.Background(), coll: coll, p: plan, ids: &ids, s: s}
	e.run()
	return ids
}

// ExecutePlan runs a pre-chosen plan (used by benchmarks that want to
// force an access path).
func ExecutePlan(coll *collection.Collection, plan *Plan) *Result {
	start := time.Now()
	s := getScratch()
	defer putScratch(s)
	e := exec{ctx: context.Background(), coll: coll, p: plan, collect: true, s: s}
	e.run()
	return e.result(start, nil)
}

// cancelCheckWorks is how many work units (keys examined + documents
// fetched) a scan processes between context checks: frequent enough
// that a cancelled broadcast stops within microseconds, rare enough
// that the uncancelled path stays unmeasurable.
const cancelCheckWorks = 256

// runPlan executes the plan without collecting documents (plan trials
// and explain's counting runs). completed reports whether the plan
// ran to the end within maxWorks (0 = unlimited).
func runPlan(coll *collection.Collection, p *Plan, maxWorks int) (ExecStats, bool) {
	s := getScratch()
	defer putScratch(s)
	e := exec{ctx: context.Background(), coll: coll, p: p, maxWorks: maxWorks, s: s}
	completed := e.run()
	return e.stats, completed
}

// exec is the state of one plan execution over pooled scratch. It
// lives on the caller's stack; the scratch holds everything that
// needs to outlive stack frames between segments.
type exec struct {
	ctx      context.Context
	coll     *collection.Collection
	p        *Plan
	maxWorks int // keys examined + docs fetched budget; 0 = unlimited
	collect  bool
	opts     Opts
	s        *scratch
	// ids, when non-nil, redirects collection: matching record ids
	// are appended instead of documents (the write path's lookup).
	ids      *[]storage.RecordID
	stats    ExecStats
	ctxErr   error
	hitLimit bool
	// in classifies scanned keys as interior (see Containment): a key
	// in an interior cell proves its document matches. keyOnly answers
	// such a key from the key alone; otherwise its document is fetched
	// and kept without the refine. keyOnlyN counts the keys the scan
	// handles without fetching their documents, for the context check,
	// which they never reach through the document counter.
	in       interior
	keyOnly  bool
	keyOnlyN int
	// sortAt is, in a key-first ordered execution, the position of the
	// order-by field among the plan index's components; -1 otherwise
	// (see sortComponent). run sets it.
	sortAt int
}

// contain turns on interior classification for a document or
// aggregate execution whose plan residual a key in an interior cell
// proves. A count, or a cell histogram over the containment's leading
// field, takes such a key's whole contribution from the key. An
// execution that collects record ids for a write never classifies, so
// a delete refines every document it removes.
func (e *exec) contain(cfg *Config, p *Prepared) {
	if cfg == nil || cfg.Contain == nil || e.p.Index == nil || !e.collect || e.ids != nil {
		return
	}
	e.in = p.interiorFor(e.p, cfg.Contain)
	agg := e.opts.Agg
	e.keyOnly = agg.Kind == AggCount || agg.Kind == AggCellHist && agg.Field == cfg.Contain.Leading
}

// run executes the plan. It reports whether the plan ran to
// completion — where satisfying a pushed-down limit counts as
// completion, so a limited query never evicts a healthy cached plan.
// A partial run with e.ctxErr set means the context cancelled the
// scan mid-flight; partial results are discarded by callers.
func (e *exec) run() bool {
	if e.collect {
		clear(e.s.docs)
		e.s.docs = e.s.docs[:0]
		e.s.rank.reset(e.opts.Limit, e.opts.Desc, e.opts.Bound)
		e.s.agg.reset()
		e.s.keyFirst.reset()
	}
	if e.p.Index == nil {
		e.sortAt = -1
		return e.runCollScan()
	}
	e.sortAt = e.sortComponent()
	for _, seg := range e.p.Segments {
		e.scanSegment(seg)
		if e.ctxErr != nil {
			return false
		}
		if e.hitLimit {
			return true
		}
		if !e.budgetLeft() {
			return false
		}
	}
	if e.sortAt >= 0 {
		return e.fetchSorted()
	}
	return true
}

// sortComponent is the position of the order-by field among the plan
// index's components when an ordered document execution can take its
// sort keys from the index — the field is an Ascending component, so
// its key component is the document's sort key (appendSortKey) — and
// -1 otherwise: unordered, aggregating or id-collecting executions, and
// a field the index lacks or holds only as a 2dsphere cell.
func (e *exec) sortComponent() int {
	if !e.collect || e.ids != nil || e.opts.Agg.Active() || !e.opts.ordered() {
		return -1
	}
	for i, f := range e.p.Index.Def().Fields {
		if f.Name == e.opts.OrderBy && f.Kind == index.Ascending {
			return i
		}
	}
	return -1
}

// budgetLeft is the per-work-unit gate: an occasional context check
// plus the works budget. Segment key counts are added when a segment
// finishes, so mid-segment the budget advances on documents fetched —
// the same accounting the replan budget was calibrated against.
func (e *exec) budgetLeft() bool {
	works := e.stats.KeysExamined + e.stats.DocsExamined
	if works%cancelCheckWorks == 0 {
		if err := e.ctx.Err(); err != nil {
			e.ctxErr = err
			return false
		}
	}
	return e.maxWorks == 0 || works < e.maxWorks
}

// fetchBatch is how many examined documents the scan collects before it
// looks them up, touches them and refines them. Large enough that one
// lock acquisition and one round of overlapped cache misses are spread
// over many documents, small enough that a limit or a budget running
// out mid-batch wastes a handful of lookups and that a three-document
// point query pays nothing for it.
const fetchBatch = 32

// scanSegment streams the segment through the pooled iterator, queuing
// the record of every key that survives the bounds for the next batch.
// For skip-scan segments (sub-bounds on the field after the leading
// component) out-of-range keys trigger a Seek — forward to the
// sub-range inside the same leading value, or to the next leading
// value — instead of restarting the scan from the root as the old
// recursive path did. Every inspected key (including the ones that
// trigger seeks and the terminator) counts as examined, like the
// server's totalKeysExamined.
func (e *exec) scanSegment(seg Segment) {
	it := &e.s.it
	e.p.Index.IterInit(it, seg.Interval)
	for it.Next() {
		if seg.SubLo != nil {
			key := it.Key()
			compLen, err := keyenc.ComponentLen(key)
			// A malformed key falls through to be emitted, so no result
			// can be lost.
			if err == nil && len(key) >= compLen+8 {
				rest := key[compLen : len(key)-8]
				if keyenc.Compare(rest, seg.SubLo) < 0 {
					// Below the sub-range: seek to it within this leading
					// value.
					e.s.resume = append(append(e.s.resume[:0], key[:compLen]...), seg.SubLo...)
					it.Seek(e.s.resume)
					continue
				}
				if keyenc.Compare(rest, seg.SubHiUpper) >= 0 {
					// Past the sub-range: seek to the next leading value.
					ub := keyenc.AppendPrefixUpperBound(e.s.resume[:0], key[:compLen])
					if ub == nil {
						// All-0xFF leading value: no next value exists.
						break
					}
					e.s.resume = ub
					it.Seek(ub)
					continue
				}
			}
		}
		if !e.push(it) {
			return // push charged the keys up to the one that stopped it
		}
	}
	if e.flush() {
		e.stats.KeysExamined += it.Examined()
	}
}

// push queues the iterator's current entry — its record id, the
// examined count as of its key, and whether the key lies in an interior
// cell — and processes the batch once it is full. A key-only
// execution answers an interior key on the spot instead, and a
// key-first execution's key becomes a candidate. It returns false to
// stop the scan.
func (e *exec) push(it *btree.Iterator) bool {
	inside := e.in.ok && e.in.contains(it.Key())
	if inside && e.keyOnly {
		return e.fromKey(it.Key())
	}
	if e.sortAt >= 0 {
		return e.queueKey(it, inside)
	}
	b := &e.s.batch
	b.ids[b.n] = storage.RecordID(it.Value())
	b.seen[b.n] = it.Examined()
	b.inside[b.n] = inside
	b.n++
	return b.n < fetchBatch || e.flush()
}

// fromKey folds an interior key into a count or cell histogram without
// fetching its document: the key proves the document matches, and its
// leading value is the document's cell. Aggregates are order-free, so
// answering it ahead of the batch still queued changes nothing; a scan
// this stops discards its partial aggregate.
func (e *exec) fromKey(key []byte) bool {
	e.stats.NReturned++
	e.s.agg.count++
	if e.opts.Agg.Kind == AggCellHist {
		// contains parsed the key's leading component as a number.
		v, _ := keyenc.Number(key)
		e.s.agg.addCell(uint64(int64(v)) >> e.opts.Agg.Shift)
	}
	if e.keyOnlyN++; e.keyOnlyN%cancelCheckWorks == 0 {
		if err := e.ctx.Err(); err != nil {
			e.ctxErr = err
			e.s.batch.n = 0 // the queued entries die with the scan
			return false
		}
	}
	return true
}

// queueKey keeps the iterator's current entry as a candidate of a
// key-first ordered execution: its record id, its key's sort component
// copied into the scratch, and whether the key is interior. A key
// strictly worse than the bound (Opts.Bound) cannot make the answer and
// is not kept. No document is fetched before every key has been seen
// (fetchSorted), so this pass charges the keys against the works budget
// as it goes — as of each candidate's key — and checks the context
// every cancelCheckWorks keys. When it stops the scan it charges the
// segment's keys itself.
func (e *exec) queueKey(it *btree.Iterator, inside bool) bool {
	if key := keyComponent(it.Key(), e.sortAt); !worse(key, e.opts.Bound, e.opts.Desc) {
		e.s.keyFirst.add(storage.RecordID(it.Value()), key, inside)
	}
	if e.keyOnlyN++; e.keyOnlyN%cancelCheckWorks == 0 {
		if err := e.ctx.Err(); err != nil {
			e.ctxErr = err
			e.stats.KeysExamined += it.Examined()
			return false
		}
	}
	if e.maxWorks > 0 && e.stats.KeysExamined+it.Examined()+e.stats.DocsExamined >= e.maxWorks {
		e.stats.KeysExamined += it.Examined()
		return false
	}
	return true
}

// keyComponent cuts component n out of an index entry key (the encoded
// tuple before the 8-byte record id). Every key the index built has it;
// a key without it yields an empty sort key, which sorts first.
func keyComponent(key []byte, n int) []byte {
	if len(key) < 8 {
		return nil
	}
	key = key[:len(key)-8]
	for {
		l, err := keyenc.ComponentLen(key)
		if err != nil {
			return nil
		}
		if n == 0 {
			return key[:l]
		}
		key, n = key[l:], n-1
	}
}

// fetchSorted is the second pass of a key-first ordered execution: it
// orders the candidates by (sort key under Desc, scan position) — the
// order a stable sort of the matches by key takes — and fetches and
// refines them in that order through the batch until Limit documents
// match, so a top-k examines the documents that can make the answer
// and few more. The first pass charged every key, so a stop here
// charges none.
func (e *exec) fetchSorted() bool {
	kf := &e.s.keyFirst
	kf.order(e.opts.Desc)
	b := &e.s.batch
	for i, ok := kf.next(); ok; i, ok = kf.next() {
		b.ids[b.n], b.seen[b.n], b.keys[b.n], b.inside[b.n] = kf.cands[i].id, 0, kf.key(i), kf.cands[i].inside
		if b.n++; b.n == fetchBatch && !e.flush() {
			return e.hitLimit
		}
	}
	return e.flush() || e.hitLimit
}

// flush processes the queued entries in three passes: look every record
// up under one acquisition of the store's read lock; read a byte of
// each record's first two cache lines — independent loads the core
// overlaps, where fetching, parsing and missing one document at a time
// pays every miss at full latency; then refine them in scan order.
//
// The counters are those of a one-document-at-a-time scan: a document
// counts as examined when it is processed, not when it is looked up,
// the budget and context gate runs after each one, and when a document
// stops the scan (limit met, budget spent, context cancelled) the
// segment's keys are charged as of that document's key — the lookahead
// the iterator did to fill the batch is never reported. flush returns
// false in that case, having charged the keys itself.
func (e *exec) flush() bool {
	b := &e.s.batch
	n := b.n
	if n == 0 {
		return true
	}
	b.n = 0
	e.coll.Store().FetchRawBatch(b.ids[:n], b.raws[:n])
	for _, raw := range b.raws[:n] {
		if len(raw) > 64 {
			b.sink += raw[0] + raw[64]
		}
	}
	for i, raw := range b.raws[:n] {
		e.stats.DocsExamined++
		var more bool
		if raw == nil {
			// An index entry pointing at a missing record means a
			// concurrent delete; skip it like the server does.
			more = e.budgetLeft()
		} else {
			more = e.emitRaw(b.ids[i], raw, b.keys[i], b.inside[i])
		}
		if !more {
			e.stats.KeysExamined += b.seen[i]
			return false
		}
	}
	return true
}

// emitRaw matches one document and accumulates it; in a key-first
// fetch pass, key is its sort key, read from its index entry. A
// document whose key lies in an interior cell (inside) matches without
// the refine. The stored bytes are immutable, so matching and
// collection alias them without copying.
func (e *exec) emitRaw(id storage.RecordID, raw, key []byte, inside bool) bool {
	// The filter sees the document through the scratch's *bson.Raw:
	// converting the slice itself to bson.Doc would allocate per
	// document.
	e.s.doc = raw
	if inside || e.refine() {
		e.stats.NReturned++
		switch {
		case e.ids != nil:
			*e.ids = append(*e.ids, id)
		case e.collect && e.opts.Agg.Active():
			// Aggregation: fold the document and keep scanning. Limit
			// does not apply — an aggregate covers every match.
			e.s.agg.accumulate(bson.Raw(raw), e.opts.Agg)
		case e.sortAt >= 0:
			// Key-first: documents arrive in the final order, so the
			// first Limit matches are the answer.
			e.s.rank.keep(bson.Raw(raw), key)
			if e.opts.Limit > 0 && e.s.rank.n >= e.opts.Limit {
				e.hitLimit = true
				return false
			}
		case e.collect && e.opts.ordered():
			e.s.keyBuf = appendSortKey(e.s.keyBuf[:0], bson.Raw(raw), e.opts.OrderBy)
			e.s.rank.offer(bson.Raw(raw), e.s.keyBuf)
		case e.collect:
			e.s.docs = append(e.s.docs, bson.Raw(raw))
			if e.opts.Limit > 0 && len(e.s.docs) >= e.opts.Limit {
				e.hitLimit = true
				return false
			}
		}
	}
	return e.budgetLeft()
}

// refine checks the document in e.s.doc against the plan's residual.
func (e *exec) refine() bool {
	if e.p.Filter == nil {
		return true
	}
	e.stats.DocsRefined++
	return e.p.Filter.Matches(&e.s.doc)
}

// runCollScan walks the store when no index is usable.
func (e *exec) runCollScan() bool {
	completed := true
	e.coll.Store().Walk(func(id storage.RecordID, raw []byte) bool {
		e.stats.DocsExamined++
		if !e.emitRaw(id, raw, nil, false) {
			completed = e.hitLimit
			return false
		}
		return true
	})
	if e.ctxErr != nil {
		return false
	}
	return completed
}
