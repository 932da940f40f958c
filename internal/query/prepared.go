package query

import (
	"fmt"
	"sync"

	"repro/internal/bson"
	"repro/internal/index"
)

// Prepared is a spec together with everything planning derives from
// it alone: its plan-cache shape and — per index definition, identical
// on every shard of a cluster — the scan segments and residual
// predicate of the access path through that index. A scatter prepares
// its spec once and hands the same value to every shard execution, so
// a shard only assembles its Plan: the spec's one candidate, or the
// plan cache's winner among several.
//
// A Prepared is itself a Filter and answers like the spec it wraps;
// every planning and execution entry point accepts either. It is safe
// for the concurrent executions of one scatter.
type Prepared struct {
	spec *Spec

	// shape is ShapeOf(spec), boxed once (the plan cache is a
	// sync.Map, and boxing the key per load would allocate) and only
	// when a shard first consults its plan cache: a query the router
	// answers from its result cache never renders it.
	shapeOnce sync.Once
	shape     any

	mu    sync.Mutex
	paths []accessPath

	// Room for the access paths through a shard's _id index and one
	// more: preparing a spec allocates the Prepared alone.
	pathArr [2]accessPath
}

// accessPath is the shard-independent part of a plan through one
// index definition.
type accessPath struct {
	spec    string
	geoBits uint

	segments []Segment
	residual Filter
	usable   bool

	// interior classifies the path's keys under contain (see
	// interiorFor); both are set on the first contained execution.
	contain  *Containment
	interior interior
}

// Prepare derives the spec's planning state; preparing a Prepared
// returns it unchanged. f must be a *Spec or a *Prepared (see SpecOf).
func Prepare(f Filter) *Prepared {
	if p, ok := f.(*Prepared); ok {
		return p
	}
	p := &Prepared{spec: SpecOf(f)}
	p.paths = p.pathArr[:0]
	return p
}

// SpecOf returns the query a *Spec or a *Prepared holds. Any other
// filter panics: a spec is the only query there is.
func SpecOf(f Filter) *Spec {
	switch t := f.(type) {
	case *Spec:
		return t
	case *Prepared:
		return t.spec
	}
	panic(fmt.Sprintf("query: a %T is not a query spec", f))
}

// cacheKey returns the spec's plan-cache key, its boxed shape.
func (p *Prepared) cacheKey() any {
	p.shapeOnce.Do(func() { p.shape = p.spec.shape() })
	return p.shape
}

// Spec returns the spec that was prepared.
func (p *Prepared) Spec() *Spec { return p.spec }

// Matches implements Filter.
func (p *Prepared) Matches(doc bson.Doc) bool { return p.spec.Matches(doc) }

// String implements Filter.
func (p *Prepared) String() string { return p.spec.String() }

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
	var covered int
	ap.segments, covered, ap.usable = planSegments(ix, p.spec)
	if ap.usable {
		ap.residual = residualFilter(p.spec, ix.Def().Fields[:covered])
	}
	p.paths = append(p.paths, ap)
	return ap
}
