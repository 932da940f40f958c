package query

import (
	"fmt"

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

// CandidatePlans enumerates every usable access path for the spec:
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

// candidates appends the spec's candidate plans to dst, at most max
// of them (0: all).
func candidates(coll *collection.Collection, p *Prepared, dst []Plan, max int) []Plan {
	if p.spec.Impossible() {
		// A provably empty result: an index scan over no segments.
		return append(dst, Plan{Index: coll.Index(collection.IDIndexName), Filter: p.spec})
	}
	n := len(dst)
	for _, ix := range coll.Indexes() {
		if ap := p.path(ix); ap.usable && (max == 0 || len(dst)-n < max) {
			dst = append(dst, Plan{Index: ix, Segments: ap.segments, Filter: ap.residual})
		}
	}
	if len(dst) == n {
		dst = append(dst, Plan{Filter: p.spec})
	}
	return dst
}

// residualFilter is the spec less the predicates the covered index
// fields fully enforce (covered predicates), the way the server's FETCH
// stage only re-checks what the IXSCAN could not guarantee. Dropping
// the Hilbert approach's cell constraint here is what keeps refinement
// linear in the matched documents rather than in the cover size.
func residualFilter(s *Spec, covered []index.Field) residual {
	r := residual{s: s, window: true, key: s.Key != NoKey}
	for _, f := range covered {
		switch f.Name {
		case FieldDate:
			r.window = false
		case s.keyField():
			r.key = false
		}
	}
	return r
}

// fieldSet is the closed intervals a spec puts on one index field: the
// geohash cells covering its rectangle on a 2dsphere location, what
// Spec.Intervals lists on an ascending field. ok is false when the
// spec leaves the field unconstrained; derived that the set is built.
type fieldSet struct {
	s       *Spec
	field   string
	cells   []sfc.Range
	n       int
	ok      bool
	derived bool
}

func fieldSetOf(ix *index.Index, f index.Field, s *Spec) fieldSet {
	if f.Kind == index.Geo2DSphere {
		if f.Name != FieldLoc {
			return fieldSet{}
		}
		bits := ix.Def().GeoBits
		if bits == 0 {
			bits = geohash.DefaultBits
		}
		// The depth-first cover ascends and is disjoint.
		cover := geohash.Cover(s.Rect, bits, geoCoverMaxCells)
		cells := make([]sfc.Range, len(cover))
		for i, c := range cover {
			cells[i].Lo, cells[i].Hi = c.Range(bits)
		}
		return fieldSet{cells: cells, n: len(cells), ok: true}
	}
	n := s.Intervals(f.Name)
	return fieldSet{s: s, field: f.Name, n: n, ok: n > 0}
}

// appendInterval appends the encoded ends of the set's i-th interval
// after prefix, and reports whether it holds one value.
func (fs *fieldSet) appendInterval(keys *keyenc.Buf, prefix []byte, i int) (lo, hi []byte, point bool) {
	if fs.s == nil {
		r := fs.cells[i]
		return keys.AppendNumber(prefix, float64(r.Lo)), keys.AppendNumber(prefix, float64(r.Hi)), r.Lo == r.Hi
	}
	return fs.s.AppendInterval(keys, prefix, fs.field, i)
}

// planSegments builds the scan segments of one index for the spec, and
// reports how many of its leading fields they cover. usable is false
// when the index's leading field is unconstrained.
//
// Point constraints on a field compose with the next field's bounds
// by key-prefix extension. A *range* on an Ascending leading field
// composes with the next Ascending field's bounds via skip-scan
// sub-bounds. A 2dsphere component's cell ranges scan flat, without
// trailing-field pruning — the behaviour the paper observes for the
// baseline's built-in spatial index.
func planSegments(ix *index.Index, s *Spec) (segs []Segment, covered int, usable bool) {
	fields := ix.Def().Fields
	// Each field's set is derived when first needed: a 2dsphere set
	// costs a geohash cover.
	var arr [4]fieldSet
	sets := arr[:0]
	if len(fields) > len(arr) {
		sets = make([]fieldSet, 0, len(fields))
	}
	sets = sets[:len(fields)]
	set := func(i int) *fieldSet {
		if !sets[i].derived {
			sets[i] = fieldSetOf(ix, fields[i], s)
			sets[i].derived = true
		}
		return &sets[i]
	}
	if !set(0).ok {
		return nil, 0, false
	}
	// Every key below is a window of one buffer, sized for a pair of
	// keys per interval, and for a cell range's composition with one
	// date interval.
	size := 32 * (sets[0].n + 1)
	if fields[0].Name == FieldHilbert {
		size = 32 + 64*sets[0].n
	}
	keys := make(keyenc.Buf, 0, size)
	// Skip-scan sub-bounds apply when the leading field is Ascending
	// and the second field is a constrained Ascending field.
	var subLo, subHiUpper []byte
	subExact := false
	if len(fields) > 1 && fields[0].Kind == index.Ascending && fields[1].Kind == index.Ascending && set(1).ok {
		// Bound by the set's envelope, widened to inclusive. The
		// envelope equals the set when it is a single interval, in
		// which case the bound is exact.
		subLo, _, _ = sets[1].appendInterval(&keys, nil, 0)
		_, subHiUpper, _ = sets[1].appendInterval(&keys, nil, sets[1].n-1)
		subHiUpper = keyenc.AppendPrefixUpperBound(subHiUpper[:0], subHiUpper)
		subExact = sets[1].n == 1
	}
	out := make([]Segment, 0, sets[0].n)
	anyRangeSegments := false
	var compose func(fieldIdx int, prefix []byte)
	compose = func(fieldIdx int, prefix []byte) {
		fs := &sets[fieldIdx]
		for i := 0; i < fs.n; i++ {
			lo, hi, point := fs.appendInterval(&keys, prefix, i)
			if next := fieldIdx + 1; point && next < len(fields) && set(next).ok {
				compose(next, lo)
				continue
			}
			seg := Segment{Interval: keyInterval(lo, hi)}
			if fieldIdx == 0 && !point {
				anyRangeSegments = true
				seg.SubLo, seg.SubHiUpper = subLo, subHiUpper
			}
			out = append(out, seg)
		}
	}
	compose(0, nil)
	// Covered predicates: a spec's intervals on an Ascending field
	// represent its predicate exactly, so the leading Ascending field's
	// bounds cover it; the second field is covered when every range
	// segment enforced an exact sub-bound and every point composition
	// encoded its full set (which compose does by construction).
	if fields[0].Kind == index.Ascending {
		covered = 1
		if len(fields) > 1 && fields[1].Kind == index.Ascending && set(1).ok {
			if !anyRangeSegments || (subLo != nil && subExact) {
				covered = 2
			}
		}
	}
	return out, covered, true
}

// keyInterval translates a closed interval, given as its encoded ends
// (it rewrites hi in place), into scan bounds: every key extending an
// end lies inside.
func keyInterval(loKey, hiKey []byte) index.Interval {
	return index.Interval{
		Low:  index.IntervalFromTuples(loKey, nil).Low,
		High: index.UpperBoundExclusive(keyenc.AppendPrefixUpperBound(hiKey[:0], hiKey)),
	}
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

// ChoosePlan ranks the spec's candidates. With one candidate it returns it
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
