package query

import (
	"sync"

	"repro/internal/bson"
	"repro/internal/index"
)

// Prepared is a filter together with everything planning derives from
// it alone: its plan-cache shape, its per-field bounds, and — per
// index definition, identical on every shard of a cluster — the scan
// segments and residual predicate of the access path through that
// index. A scatter prepares its filter once and hands the same value
// to every shard execution, so on a plan-cache hit a shard does one
// cache load, one index lookup and builds one Plan.
//
// A Prepared is itself a Filter and answers like the filter it wraps;
// every planning and execution entry point accepts either. It is safe
// for the concurrent executions of one scatter.
type Prepared struct {
	filter Filter
	bounds bounds

	// shape is ShapeOf(filter), boxed once (the plan cache is a
	// sync.Map, and boxing the key per load would allocate) and only
	// when a shard first consults its plan cache: a query the router
	// answers from its result cache never renders it.
	shapeOnce sync.Once
	shape     any

	mu    sync.Mutex
	paths []accessPath
	// compiled is the whole filter compiled: what a collection scan
	// refines with.
	compiled Filter
}

// accessPath is the shard-independent part of a plan through one
// index definition.
type accessPath struct {
	spec    string
	geoBits uint

	segments []Segment
	residual Filter
	usable   bool
}

// Prepare derives the filter's planning state; preparing a Prepared
// returns it unchanged.
func Prepare(f Filter) *Prepared {
	if p, ok := f.(*Prepared); ok {
		return p
	}
	return &Prepared{filter: f, bounds: extractBounds(f)}
}

// cacheKey returns the filter's plan-cache key, its boxed shape.
func (p *Prepared) cacheKey() any {
	p.shapeOnce.Do(func() { p.shape = ShapeOf(p.filter) })
	return p.shape
}

// Filter returns the filter that was prepared.
func (p *Prepared) Filter() Filter { return p.filter }

// Matches implements Filter.
func (p *Prepared) Matches(doc bson.Doc) bool { return p.filter.Matches(doc) }

// String implements Filter.
func (p *Prepared) String() string { return p.filter.String() }

// path returns the access path through the index, deriving it on
// first use.
func (p *Prepared) path(ix *index.Index) accessPath {
	spec, geoBits := ix.Spec(), ix.Def().GeoBits
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ap := range p.paths {
		if ap.spec == spec && ap.geoBits == geoBits {
			return ap
		}
	}
	ap := accessPath{spec: spec, geoBits: geoBits}
	var covered map[string]bool
	ap.segments, covered, ap.usable = planSegments(ix, p.bounds)
	if ap.usable {
		ap.residual = compile(residualFilter(p.filter, covered))
	}
	p.paths = append(p.paths, ap)
	return ap
}

// whole returns the entire filter, compiled.
func (p *Prepared) whole() Filter {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.compiled == nil {
		p.compiled = compile(p.filter)
	}
	return p.compiled
}
