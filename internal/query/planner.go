package query

import (
	"fmt"
	"slices"

	"repro/internal/collection"
	"repro/internal/geohash"
	"repro/internal/index"
	"repro/internal/keyenc"
	"repro/internal/sfc"
)

// Config tunes planning and execution.
type Config struct {
	// TrialWorks is the work budget (keys examined + documents
	// fetched) each candidate plan gets during the plan-selection
	// trial. 0 means DefaultTrialWorks.
	TrialWorks int
	// Contain, when set, lets index scans accept documents in interior
	// cells without refining their $geoWithin (see Containment). Plan
	// trials and explain always refine.
	Contain *Containment
}

// DefaultTrialWorks is Config.TrialWorks's default.
const DefaultTrialWorks = 2000

// geoCoverMaxCells caps the geohash covering of a $geoWithin predicate
// when planning a 2dsphere index scan; larger coverings are coarsened
// (over-covering, never under-covering).
const geoCoverMaxCells = 64

func (c *Config) trialWorks() int {
	if c == nil || c.TrialWorks == 0 {
		return DefaultTrialWorks
	}
	return c.TrialWorks
}

// CollScanName is the plan name reported when no index is usable.
const CollScanName = "COLLSCAN"

// Segment is one scan unit of an index plan: a key interval over the
// leading field, optionally with bounds on the immediately following
// field. When SubLo/SubHiUpper are set, the executor performs a
// skip-scan: within each distinct leading value it visits only the
// keys whose second component falls in the sub-bounds, seeking across
// the gaps — the server's IndexBoundsChecker behaviour that lets a
// compound {hilbertIndex, date} index skip the dates outside the
// query window inside every Hilbert cell range.
type Segment struct {
	Interval index.Interval
	// SubLo is the inclusive encoded lower bound of the second field;
	// nil disables the skip-scan.
	SubLo []byte
	// SubHiUpper is the exclusive encoded upper limit of the second
	// field's extension space (PrefixUpperBound of the encoded
	// inclusive bound).
	SubHiUpper []byte
}

// Plan is an executable access path: either an index scan over a list
// of segments, or a full collection scan.
type Plan struct {
	// Index is nil for a collection scan.
	Index *index.Index
	// Segments are the scan units, ascending and disjoint.
	Segments []Segment
	// Filter is the residual predicate applied to fetched documents.
	Filter Filter
}

// Name identifies the plan by its index ("{location: 2dsphere,
// date: 1}" style) or CollScanName.
func (p *Plan) Name() string {
	if p.Index == nil {
		return CollScanName
	}
	return p.Index.Spec()
}

// CandidatePlans enumerates every usable access path for the filter:
// one plan per index whose leading field is constrained, plus a
// collection scan when none is.
func CandidatePlans(coll *collection.Collection, f Filter) []*Plan {
	plans := candidates(coll, Prepare(f), nil, 0)
	out := make([]*Plan, len(plans))
	for i := range plans {
		out[i] = &plans[i]
	}
	return out
}

// candidates appends the filter's candidate plans to dst, at most max
// of them (0: all).
func candidates(coll *collection.Collection, p *Prepared, dst []Plan, max int) []Plan {
	if p.bounds.impossible {
		// A provably empty result: an index scan over no segments.
		return append(dst, Plan{Index: coll.Index(collection.IDIndexName), Filter: p.filter})
	}
	n := len(dst)
	for _, ix := range coll.Indexes() {
		if ap := p.path(ix); ap.usable && (max == 0 || len(dst)-n < max) {
			dst = append(dst, Plan{Index: ix, Segments: ap.segments, Filter: ap.residual})
		}
	}
	if len(dst) == n {
		dst = append(dst, Plan{Filter: compile(p.filter)})
	}
	return dst
}

// residualFilter removes the top-level conjuncts whose field is one of
// the covered index fields, fully enforced by the plan's index bounds
// (covered predicates), the way the server's FETCH stage only re-checks
// what the IXSCAN could not guarantee, and compiles what is left.
// Dropping the Hilbert approach's cell constraint here is what keeps
// refinement linear in the matched documents rather than in the cover
// size.
func residualFilter(f Filter, covered []index.Field) Filter {
	if len(covered) == 0 {
		return compile(f)
	}
	droppable := func(c Filter) bool {
		field, ok := singleField(c)
		return ok && slices.ContainsFunc(covered, func(cf index.Field) bool { return cf.Name == field })
	}
	and, isAnd := f.(And)
	if !isAnd {
		if droppable(f) {
			return And{}
		}
		return compile(f)
	}
	kept := make([]Filter, 0, len(and.Children))
	for _, c := range and.Children {
		if !droppable(c) {
			kept = append(kept, compile(c))
		}
	}
	return And{Children: kept}
}

// planSegments builds the scan segments of one index for the
// extracted bounds, and reports how many of its leading fields they
// cover. usable is false when the index's leading field is
// unconstrained.
//
// Point constraints on a field compose with the next field's bounds
// by key-prefix extension. A *range* on an Ascending leading field
// composes with the next Ascending field's bounds via skip-scan
// sub-bounds. A 2dsphere component's cell ranges scan flat, without
// trailing-field pruning — the behaviour the paper observes for the
// baseline's built-in spatial index.
func planSegments(ix *index.Index, b bounds) (segs []Segment, covered int, usable bool) {
	fields := ix.Def().Fields
	// A KeyRanges on an Ascending leading field is read unboxed.
	var ranges []sfc.Range
	if fields[0].Kind == index.Ascending {
		ranges = b.keyRanges(fields[0].Name)
	}
	var set0 []ValueInterval
	if ranges == nil {
		if set0 = fieldIntervalSet(ix, fields[0], b); set0 == nil {
			return nil, 0, false
		}
	}
	// Every key below is a window of one buffer, sized for a pair of
	// numeric or date keys per interval, or per range and its
	// composition with one date interval.
	keys := make(keyenc.Buf, 0, 32*(len(set0)+1)+64*len(ranges))
	// Skip-scan sub-bounds apply when the leading field is Ascending
	// and the second field is a constrained Ascending field.
	var subLo, subHiUpper []byte
	subExact := false
	if len(fields) > 1 && fields[0].Kind == index.Ascending && fields[1].Kind == index.Ascending {
		if nextSet := fieldIntervalSet(ix, fields[1], b); len(nextSet) > 0 {
			// Bound by the set's envelope, widened to inclusive. The
			// envelope equals the set when there is a single
			// inclusive interval, in which case the bound is exact.
			lo := nextSet[0]
			hi := nextSet[len(nextSet)-1]
			subLo = keys.Append(nil, lo.Lo)
			subHiUpper = keys.Append(nil, hi.Hi)
			subHiUpper = keyenc.AppendPrefixUpperBound(subHiUpper[:0], subHiUpper)
			subExact = len(nextSet) == 1 && lo.LoIncl && hi.HiIncl
		}
	}
	out := make([]Segment, 0, len(set0)+len(ranges))
	anyRangeSegments := false
	var compose func(fieldIdx int, prefix []byte, set []ValueInterval)
	// emit adds the segment of an interval given by its encoded ends.
	emit := func(fieldIdx int, lo, hi []byte, loIncl, hiIncl, point bool) {
		if next := fieldIdx + 1; point && next < len(fields) {
			if nextSet := fieldIntervalSet(ix, fields[next], b); nextSet != nil {
				compose(next, lo, nextSet)
				return
			}
		}
		kiv, ok := keyInterval(lo, hi, loIncl, hiIncl)
		if !ok {
			return
		}
		seg := Segment{Interval: kiv}
		if fieldIdx == 0 && !point {
			anyRangeSegments = true
			if subLo != nil && subHiUpper != nil {
				seg.SubLo, seg.SubHiUpper = subLo, subHiUpper
			}
		}
		out = append(out, seg)
	}
	compose = func(fieldIdx int, prefix []byte, set []ValueInterval) {
		for _, iv := range set {
			lo := keys.Append(prefix, iv.Lo)
			emit(fieldIdx, lo, keys.Append(prefix, iv.Hi), iv.LoIncl, iv.HiIncl, iv.IsPoint())
		}
	}
	for _, r := range ranges {
		lo := keys.AppendNumber(nil, float64(r.Lo))
		emit(0, lo, keys.AppendNumber(nil, float64(r.Hi)), true, true, r.Lo == r.Hi)
	}
	compose(0, nil, set0)
	// Covered predicates: the leading Ascending field's bounds encode
	// its (strict) interval set exactly; the second field is covered
	// when every range segment enforced an exact sub-bound and every
	// point composition encoded its full set (which emit does by
	// construction).
	if fields[0].Kind == index.Ascending && b.isExact(fields[0].Name) {
		covered = 1
		if len(fields) > 1 && fields[1].Kind == index.Ascending && b.isExact(fields[1].Name) {
			if !anyRangeSegments || (subLo != nil && subExact) {
				covered = 2
			}
		}
	}
	return out, covered, true
}

// fieldIntervalSet returns the disjunctive interval set constraining
// one index field, or nil when the field is unconstrained. Geo fields
// translate their rectangle into geohash cell ranges over the indexed
// hash values.
func fieldIntervalSet(ix *index.Index, f index.Field, b bounds) []ValueInterval {
	if f.Kind == index.Geo2DSphere {
		rect, ok := b.rect(f.Name)
		if !ok {
			return nil
		}
		bits := ix.Def().GeoBits
		if bits == 0 {
			bits = geohash.DefaultBits
		}
		cells := geohash.Cover(rect, bits, geoCoverMaxCells)
		set := make([]ValueInterval, 0, len(cells))
		for _, c := range cells {
			lo, hi := c.Range(bits)
			set = append(set, ValueInterval{
				Lo: int64(lo), LoIncl: true,
				Hi: int64(hi), HiIncl: true,
			})
		}
		return normalizeIntervals(set)
	}
	set, _ := b.set(f.Name)
	return set
}

// keyInterval translates a value interval, given as its encoded ends
// (which it may rewrite in place), into scan bounds. ok is false when
// the interval is unsatisfiable in key space.
func keyInterval(loKey, hiKey []byte, loIncl, hiIncl bool) (index.Interval, bool) {
	var out index.Interval
	if !loIncl {
		if loKey = keyenc.AppendPrefixUpperBound(loKey[:0], loKey); loKey == nil {
			return out, false
		}
	}
	out.Low = index.IntervalFromTuples(loKey, nil).Low
	if hiIncl {
		// Every key extending hi: below its prefix upper bound, or
		// unbounded when there is none.
		hiKey = keyenc.AppendPrefixUpperBound(hiKey[:0], hiKey)
	}
	out.High = index.UpperBoundExclusive(hiKey)
	return out, true
}

// TrialResult records how one candidate performed during plan
// selection, mirroring the server's plan-ranking output.
type TrialResult struct {
	PlanName  string
	Advanced  int  // documents produced within the budget
	Works     int  // keys examined + documents fetched
	Completed bool // the plan finished within the budget
	Winner    bool
}

func (t TrialResult) String() string {
	mark := ""
	if t.Winner {
		mark = " (winner)"
	}
	return fmt.Sprintf("%s: advanced %d in %d works, completed=%v%s",
		t.PlanName, t.Advanced, t.Works, t.Completed, mark)
}

// ChoosePlan ranks the candidates. With one candidate it returns it
// immediately; otherwise every candidate runs with a bounded work
// budget (the server's multi-planner) and the most productive one
// wins: a completed trial beats any unfinished one; among completed
// trials fewer works win; among unfinished ones higher
// advanced-per-work wins. This trial is what makes the store
// reproduce the paper's Table 7, where the optimizer of the bslST
// deployment sometimes prefers the plain date index over the
// spatio-temporal compound index.
func ChoosePlan(coll *collection.Collection, f Filter, cfg *Config) (*Plan, []TrialResult) {
	plans := CandidatePlans(coll, f)
	if len(plans) == 1 {
		return plans[0], nil
	}
	trials := make([]TrialResult, len(plans))
	best, bestScore := 0, -1.0
	for i, p := range plans {
		st, completed := runTrial(coll, p, cfg.trialWorks())
		trials[i] = TrialResult{
			PlanName:  p.Name(),
			Advanced:  st.NReturned,
			Works:     st.KeysExamined + st.DocsExamined,
			Completed: completed,
		}
		score := trialScore(trials[i])
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	trials[best].Winner = true
	return plans[best], trials
}

func trialScore(t TrialResult) float64 {
	score := float64(t.Advanced+1) / float64(t.Works+1)
	if t.Completed {
		score += 1e6 - float64(t.Works)/1e6 // completed plans always win; fewer works first
	}
	return score
}

// runTrial executes the plan without collecting documents, stopping
// once the work budget is exhausted.
func runTrial(coll *collection.Collection, p *Plan, maxWorks int) (ExecStats, bool) {
	return runPlan(coll, p, maxWorks)
}
