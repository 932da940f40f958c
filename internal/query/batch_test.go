package query

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/btree"
	"repro/internal/collection"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/keyenc"
	"repro/internal/storage"
)

// The reference executor: the one-document-at-a-time loop the batched
// scan replaced (run → scanSegment → emitID), kept verbatim as the
// oracle for TestBatchedScanMatchesOneAtATime. It shares emitRaw,
// budgetLeft and runCollScan with the product, so what it pins is
// exactly what batching could get wrong: which documents are processed,
// in what order, and what the counters read when the scan stops.
// Ordered executions have their own reference, refRunOrdered.

func refRun(e *exec) bool {
	e.sortAt = -1
	if e.collect {
		clear(e.s.docs)
		e.s.docs = e.s.docs[:0]
		e.s.rank.reset(e.opts.Limit, e.opts.Desc, nil)
		e.s.agg.reset()
		if e.opts.ordered() && !e.opts.Agg.Active() {
			return refRunOrdered(e)
		}
	}
	if e.p.Index == nil {
		return e.runCollScan()
	}
	for _, seg := range e.p.Segments {
		refScanSegment(e, seg)
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
	return true
}

func refScanSegment(e *exec, seg Segment) {
	it := &e.s.it
	e.p.Index.IterInit(it, seg.Interval)
	if seg.SubLo == nil {
		for it.Next() {
			if !refEmitID(e, storage.RecordID(it.Value())) {
				break
			}
		}
		e.stats.KeysExamined += it.Examined()
		return
	}
	for it.Next() {
		key := it.Key()
		compLen, err := keyenc.ComponentLen(key)
		if err != nil || len(key) < compLen+8 {
			if !refEmitID(e, storage.RecordID(it.Value())) {
				break
			}
			continue
		}
		rest := key[compLen : len(key)-8]
		if keyenc.Compare(rest, seg.SubLo) < 0 {
			e.s.resume = append(append(e.s.resume[:0], key[:compLen]...), seg.SubLo...)
			it.Seek(e.s.resume)
			continue
		}
		if keyenc.Compare(rest, seg.SubHiUpper) >= 0 {
			ub := keyenc.AppendPrefixUpperBound(e.s.resume[:0], key[:compLen])
			if ub == nil {
				break
			}
			e.s.resume = ub
			it.Seek(ub)
			continue
		}
		if !refEmitID(e, storage.RecordID(it.Value())) {
			break
		}
	}
	e.stats.KeysExamined += it.Examined()
}

func refEmitID(e *exec, id storage.RecordID) bool {
	e.stats.DocsExamined++
	raw, ok := e.coll.Store().FetchRaw(id)
	if !ok {
		return e.budgetLeft()
	}
	return e.emitRaw(id, raw, nil, false)
}

// refRunOrdered is the reference of an ordered execution, written out
// one key and one document at a time, sharing only budgetLeft, the
// ranking's keep and keyComponent with the product.
//
// When the plan's index has an Ascending component on the order-by
// field, the execution is key-first. A first pass walks every segment
// (the same skip-scan as refScanSegment) and keeps each in-bounds
// key's record id and sort component, fetching nothing. That pass
// checks the context at every cancelCheckWorks-th candidate and stops
// once the keys examined so far reach the works budget, charging the
// keys as of the candidate that stopped it; between segments the
// usual budgetLeft gate runs. The candidates are then stable-sorted by
// key (reversed for Desc) and fetched one at a time in that order:
// each counts as a document examined, and the fetch stops when Limit
// documents have matched, or at the budget or context gate after each.
// So KeysExamined is the unordered scan's, and DocsExamined counts
// only the documents fetched.
//
// Otherwise (COLLSCAN, or a field the index lacks) the execution
// refines every match in scan order, with the counters of an unordered
// full scan; the answer is its matches stable-sorted by appendSortKey
// and truncated.
func refRunOrdered(e *exec) bool {
	opts := e.opts
	sortAt := -1
	if e.p.Index != nil {
		for i, f := range e.p.Index.Def().Fields {
			if f.Name == opts.OrderBy && f.Kind == index.Ascending {
				sortAt = i
			}
		}
	}
	if sortAt < 0 {
		e.opts = Opts{}
		completed := refRun(e)
		e.opts = opts
		keys := make([][]byte, len(e.s.docs))
		for i, d := range e.s.docs {
			keys[i] = appendSortKey(nil, d, opts.OrderBy)
		}
		refKeep(e, e.s.docs, keys)
		return completed
	}
	type cand struct {
		id  storage.RecordID
		key []byte
	}
	var cands []cand
	keep := func(it *btree.Iterator) bool {
		cands = append(cands, cand{storage.RecordID(it.Value()), keyComponent(it.Key(), sortAt)})
		if len(cands)%cancelCheckWorks == 0 {
			if err := e.ctx.Err(); err != nil {
				e.ctxErr = err
				return false
			}
		}
		return e.maxWorks == 0 || e.stats.KeysExamined+it.Examined() < e.maxWorks
	}
	for _, seg := range e.p.Segments {
		it := &e.s.it
		e.p.Index.IterInit(it, seg.Interval)
		for it.Next() {
			if seg.SubLo != nil {
				key := it.Key()
				compLen, err := keyenc.ComponentLen(key)
				if err == nil && len(key) >= compLen+8 {
					rest := key[compLen : len(key)-8]
					if keyenc.Compare(rest, seg.SubLo) < 0 {
						it.Seek(append(append([]byte{}, key[:compLen]...), seg.SubLo...))
						continue
					}
					if keyenc.Compare(rest, seg.SubHiUpper) >= 0 {
						ub := keyenc.PrefixUpperBound(key[:compLen])
						if ub == nil {
							break
						}
						it.Seek(ub)
						continue
					}
				}
			}
			if !keep(it) {
				break
			}
		}
		e.stats.KeysExamined += it.Examined()
		if e.ctxErr != nil || !e.budgetLeft() {
			return false
		}
	}
	slices.SortStableFunc(cands, func(a, b cand) int {
		if opts.Desc {
			return bytes.Compare(b.key, a.key)
		}
		return bytes.Compare(a.key, b.key)
	})
	for _, c := range cands {
		e.stats.DocsExamined++
		raw, ok := e.coll.Store().FetchRaw(c.id)
		if ok {
			e.s.doc = raw
		}
		if ok && (e.p.Filter == nil || e.p.Filter.Matches(&e.s.doc)) {
			e.stats.NReturned++
			e.s.rank.keep(raw, c.key)
			if opts.Limit > 0 && e.s.rank.n == opts.Limit {
				e.hitLimit = true
				return true
			}
		}
		if !e.budgetLeft() {
			return false
		}
	}
	return true
}

// refKeep leaves docs, stable-sorted by their keys and truncated, as
// the ranking's answer.
func refKeep(e *exec, docs []bson.Raw, keys [][]byte) {
	order := make([]int, len(docs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if e.opts.Desc {
			return bytes.Compare(keys[b], keys[a])
		}
		return bytes.Compare(keys[a], keys[b])
	})
	if e.opts.Limit > 0 && len(order) > e.opts.Limit {
		order = order[:e.opts.Limit]
	}
	e.s.rank.reset(e.opts.Limit, e.opts.Desc, nil)
	for _, i := range order {
		e.s.rank.keep(docs[i], keys[i])
	}
}

// countdownCtx reports cancellation from its n-th Err call on, so a
// scan is cancelled at a fixed work count instead of a wall-clock one.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

// execCase is one way of running a plan; outcome is everything a caller
// can observe of it.
type execCase struct {
	name     string
	opts     Opts
	collect  bool
	ids      bool // MatchingRecords mode
	maxWorks int
	cancelAt int // 0 = never; n = the n-th context check reports cancelled
}

type outcome struct {
	completed, hitLimit bool
	err                 error
	keys, docs, nret    int
	res                 *Result
	ids                 []storage.RecordID
}

func runCase(run func(*exec) bool, coll *collection.Collection, p *Plan, tc execCase) outcome {
	s := getScratch()
	defer putScratch(s)
	ctx := context.Background()
	if tc.cancelAt > 0 {
		ctx = &countdownCtx{Context: ctx, left: tc.cancelAt - 1}
	}
	e := exec{ctx: ctx, coll: coll, p: p, maxWorks: tc.maxWorks, collect: tc.collect, opts: tc.opts, s: s}
	var ids []storage.RecordID
	if tc.ids {
		e.ids = &ids
	}
	o := outcome{completed: run(&e)}
	o.hitLimit, o.err = e.hitLimit, e.ctxErr
	o.keys, o.docs, o.nret = e.stats.KeysExamined, e.stats.DocsExamined, e.stats.NReturned
	o.ids = ids
	if tc.collect {
		o.res = s.buildResult(tc.opts)
	}
	return o
}

func (o outcome) diff(w outcome) string {
	switch {
	case o.completed != w.completed || o.hitLimit != w.hitLimit || o.err != w.err:
		return fmt.Sprintf("completed/hitLimit/err = %v/%v/%v, reference %v/%v/%v",
			o.completed, o.hitLimit, o.err, w.completed, w.hitLimit, w.err)
	case o.keys != w.keys || o.docs != w.docs || o.nret != w.nret:
		return fmt.Sprintf("keys/docs/nReturned = %d/%d/%d, reference %d/%d/%d",
			o.keys, o.docs, o.nret, w.keys, w.docs, w.nret)
	case !slices.Equal(o.ids, w.ids):
		return "record ids differ"
	case (o.res == nil) != (w.res == nil):
		return "one side has no result"
	case o.res == nil:
		return ""
	case len(o.res.Docs) != len(w.res.Docs) || len(o.res.Keys) != len(w.res.Keys):
		return fmt.Sprintf("%d docs / %d keys, reference %d / %d",
			len(o.res.Docs), len(o.res.Keys), len(w.res.Docs), len(w.res.Keys))
	case (o.res.Agg == nil) != (w.res.Agg == nil) || o.res.Agg != nil && !o.res.Agg.Equal(w.res.Agg):
		return fmt.Sprintf("aggregate %+v, reference %+v", o.res.Agg, w.res.Agg)
	}
	for i := range o.res.Docs {
		if !bytes.Equal(o.res.Docs[i], w.res.Docs[i]) {
			return fmt.Sprintf("doc %d differs", i)
		}
	}
	for i := range o.res.Keys {
		if !bytes.Equal(o.res.Keys[i], w.res.Keys[i]) {
			return fmt.Sprintf("sort key %d differs", i)
		}
	}
	return ""
}

// batchFilters are query shapes whose candidate plans cover every scan
// form: plain single segments (date index), skip-scans with seeks
// (hilbertIndex range + a date window narrower than the data), the geo
// index's many segments, a multi-range $or, and an $in of single cells.
func batchFilters() []Filter {
	week := TimeRangeFilter("date", baseTime.Add(5*24*time.Hour), baseTime.Add(12*24*time.Hour))
	var arms []Filter
	for i := int64(0); i < 9; i++ {
		arms = append(arms, NewAnd(
			Cmp{Field: "hilbertIndex", Op: OpGTE, Value: 5000 + i*9000},
			Cmp{Field: "hilbertIndex", Op: OpLTE, Value: 5000 + i*9000 + 4000},
		))
	}
	arms = append(arms, In{Field: "hilbertIndex", Values: []any{int64(1001), int64(50050), int64(99001)}})
	return append(pushdownQueries(),
		NewAnd(
			Cmp{Field: "hilbertIndex", Op: OpGTE, Value: int64(20000)},
			Cmp{Field: "hilbertIndex", Op: OpLT, Value: int64(70000)},
			week,
		),
		NewAnd(GeoWithin{Field: "location", Rect: geo.NewRect(23.6, 37.6, 24.4, 38.4)}, week, NewOr(arms...)),
		Cmp{Field: "hilbertIndex", Op: OpGTE, Value: int64(0)},
	)
}

func batchCases() []execCase {
	cases := []execCase{
		{name: "full", collect: true},
		{name: "count-only", collect: false}, // runPlan: trials and explain
		{name: "ids", ids: true},             // MatchingRecords
		{name: "top-k", collect: true, opts: Opts{Limit: 10, OrderBy: "date", Desc: true}},
		{name: "ordered", collect: true, opts: Opts{OrderBy: "hilbertIndex"}},
		{name: "count", collect: true, opts: Opts{Agg: AggSpec{Kind: AggCount}}},
		{name: "distinct", collect: true, opts: Opts{Agg: AggSpec{Kind: AggDistinct, Field: "vehicle"}}},
		{name: "cell-hist", collect: true, opts: Opts{Agg: AggSpec{Kind: AggCellHist, Field: "hilbertIndex", Shift: 4}}},
	}
	// Natural-order limits around the batch size and mid-segment.
	for _, limit := range []int{1, fetchBatch - 1, fetchBatch, fetchBatch + 1, 77, 300} {
		cases = append(cases, execCase{name: fmt.Sprintf("limit-%d", limit), collect: true, opts: Opts{Limit: limit}})
	}
	// Works budgets that run out at the first document, mid-batch, on a
	// batch boundary and just past a context check; as a plan trial and
	// as a cached plan's replan budget.
	for _, works := range []int{1, 17, fetchBatch, 2*fetchBatch + 5, cancelCheckWorks + 1, 700} {
		cases = append(cases,
			execCase{name: fmt.Sprintf("trial-budget-%d", works), maxWorks: works},
			execCase{name: fmt.Sprintf("cached-budget-%d", works), collect: true, maxWorks: works},
			execCase{name: fmt.Sprintf("cached-budget-%d-limit-40", works), collect: true, maxWorks: works, opts: Opts{Limit: 40}},
		)
	}
	// Cancellation seen by the first, second and third context check.
	for n := 1; n <= 3; n++ {
		cases = append(cases, execCase{name: fmt.Sprintf("cancel-at-check-%d", n), collect: true, cancelAt: n})
	}
	// Ordered limits around the fetch batch, both ways; the same top-k
	// under the budgets of a cached plan and under cancellation, which
	// the key pass of a key-first execution meets before any document.
	topk := Opts{Limit: 10, OrderBy: "date", Desc: true}
	for _, limit := range []int{1, fetchBatch - 1, fetchBatch, fetchBatch + 1} {
		cases = append(cases,
			execCase{name: fmt.Sprintf("top-%d-asc", limit), collect: true, opts: Opts{Limit: limit, OrderBy: "date"}},
			execCase{name: fmt.Sprintf("top-%d-desc", limit), collect: true, opts: Opts{Limit: limit, OrderBy: "date", Desc: true}},
		)
	}
	for _, works := range []int{1, 17, fetchBatch, cancelCheckWorks + 1, 700} {
		cases = append(cases, execCase{name: fmt.Sprintf("cached-budget-%d-top-k", works), collect: true, maxWorks: works, opts: topk})
	}
	for n := 1; n <= 3; n++ {
		cases = append(cases, execCase{name: fmt.Sprintf("cancel-at-check-%d-top-k", n), collect: true, cancelAt: n, opts: topk})
	}
	return cases
}

// TestBatchedScanMatchesOneAtATime holds the batched fetch → touch →
// refine scan to the loop it replaced, for every candidate plan of
// every shape and every way a scan can stop: same documents in the same
// order, same sort keys, same aggregate, same record ids, and the same
// KeysExamined / DocsExamined / NReturned / completed / hitLimit — the
// numbers plan trials are scored on, replans are decided on and the
// paper's tables are built from. The second collection has a tenth of
// its records deleted from the store but not from the indexes: the
// scan must skip them and still count them as examined.
//
// Ordered executions are held to refRunOrdered, which states their
// counting rule: a key-first one examines every key of the unordered
// scan but only the documents it fetches in key order until the limit
// is met, and under a works budget its key pass charges keys as it goes
// and checks the context every cancelCheckWorks keys it keeps.
func TestBatchedScanMatchesOneAtATime(t *testing.T) {
	intact := newCollWithIndexes(t, 4000)
	holed := newCollWithIndexes(t, 4000)
	rng := rand.New(rand.NewSource(11))
	for id := storage.RecordID(1); id <= 4000; id++ {
		if rng.Intn(10) == 0 {
			holed.Store().Delete(id)
		}
	}
	stopped := map[string]int{}
	for collName, coll := range map[string]*collection.Collection{"intact": intact, "holed": holed} {
		for fi, f := range batchFilters() {
			plans := append(CandidatePlans(coll, f), &Plan{Filter: f}) // + COLLSCAN
			for _, p := range plans {
				for _, tc := range batchCases() {
					got, want := runCase((*exec).run, coll, p, tc), runCase(refRun, coll, p, tc)
					if d := got.diff(want); d != "" {
						t.Errorf("%s, filter %d, plan %s (%d segments), %s: %s",
							collName, fi, p.Name(), len(p.Segments), tc.name, d)
					}
					switch {
					case tc.opts.ordered() && want.err != nil && want.docs == 0:
						stopped["key pass cancelled"]++
					case tc.opts.ordered() && !want.completed && want.err == nil && want.docs == 0:
						stopped["key pass budget"]++
					case tc.opts.ordered() && want.hitLimit:
						stopped["ordered limit"]++
					case want.err != nil:
						stopped["cancelled"]++
					case want.hitLimit:
						stopped["limit"]++
					case !want.completed:
						stopped["budget"]++
					case collName == "holed" && tc.collect && want.res.Agg == nil && want.docs > len(want.res.Docs):
						stopped["skipped"]++
					}
				}
			}
		}
	}
	// The matrix must actually have exercised every stopping condition.
	for _, why := range []string{"cancelled", "limit", "budget", "skipped", "key pass cancelled", "key pass budget", "ordered limit"} {
		if stopped[why] == 0 {
			t.Errorf("no case stopped by %q: the differential did not cover it", why)
		}
	}
	t.Logf("stops covered: %v", stopped)
}

// TestScratchDropsBatchRecords: a pooled scratch must not pin store
// records through its fetch batch once the execution is over.
func TestScratchDropsBatchRecords(t *testing.T) {
	c := newCollWithIndexes(t, 500)
	s := getScratch()
	e := exec{ctx: context.Background(), coll: c, p: CandidatePlans(c, scanSizedFilter(90000))[0], collect: true, s: s}
	if !e.run() || e.stats.DocsExamined == 0 {
		t.Fatalf("scan examined %d documents", e.stats.DocsExamined)
	}
	putScratch(s)
	for i, raw := range s.batch.raws {
		if raw != nil {
			t.Fatalf("batch slot %d still references a record after putScratch", i)
		}
	}
	if s.batch.n != 0 {
		t.Fatalf("batch left holding %d entries", s.batch.n)
	}
}
