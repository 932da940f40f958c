// Package query implements the store's query language and engine:
// filter expressions ($eq/$gt/$gte/$lt/$lte, $in, $and, $or,
// $geoWithin), index-bounds planning, Mongo-style candidate-plan
// trials, and instrumented execution that reports the keys-examined /
// docs-examined / returned counters the paper's evaluation is built
// on.
package query

import (
	"fmt"
	"strings"

	"repro/internal/bson"
	"repro/internal/geo"
)

// Filter is a predicate over documents.
type Filter interface {
	// Matches reports whether the document satisfies the predicate.
	Matches(doc bson.Doc) bool
	// String renders the filter in a query-language-like form.
	String() string
}

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	OpEQ CmpOp = iota
	OpGT
	OpGTE
	OpLT
	OpLTE
)

func (op CmpOp) String() string {
	switch op {
	case OpEQ:
		return "$eq"
	case OpGT:
		return "$gt"
	case OpGTE:
		return "$gte"
	case OpLT:
		return "$lt"
	case OpLTE:
		return "$lte"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Cmp compares a (dotted-path) field to a constant. Like the server,
// comparisons only match values of the same canonical type class
// (type bracketing): {age: {$gt: 5}} never matches a string age.
type Cmp struct {
	Field string
	Op    CmpOp
	Value any
	// k is Value classified once, set by compile; a Cmp built by
	// literal has none and classifies its constant on every call.
	k *operand
}

// Matches implements Filter.
func (c Cmp) Matches(doc bson.Doc) bool {
	k := c.k
	if k == nil {
		classified := operandOf(c.Value)
		k = &classified
	}
	v, ok := fieldOf(doc, c.Field)
	if !ok || v.kind != k.kind {
		return false
	}
	cmp := v.compare(k)
	switch c.Op {
	case OpEQ:
		return cmp == 0
	case OpGT:
		return cmp > 0
	case OpGTE:
		return cmp >= 0
	case OpLT:
		return cmp < 0
	case OpLTE:
		return cmp <= 0
	}
	return false
}

func (c Cmp) String() string {
	if c.Op == OpEQ {
		return fmt.Sprintf("{%s: %s}", c.Field, bson.FormatValue(c.Value))
	}
	return fmt.Sprintf("{%s: {%s: %s}}", c.Field, c.Op, bson.FormatValue(c.Value))
}

// In matches when the field equals any listed value.
type In struct {
	Field  string
	Values []any
	// ks are Values classified once, set by compile (see Cmp.k).
	ks []operand
}

// Matches implements Filter.
func (in In) Matches(doc bson.Doc) bool {
	v, ok := fieldOf(doc, in.Field)
	if !ok {
		return false
	}
	ks := in.ks
	if ks == nil {
		ks = operandsOf(in.Values)
	}
	for i := range ks {
		if k := &ks[i]; v.kind == k.kind && v.compare(k) == 0 {
			return true
		}
	}
	return false
}

func (in In) String() string {
	parts := make([]string, len(in.Values))
	for i, v := range in.Values {
		parts[i] = bson.FormatValue(v)
	}
	return fmt.Sprintf("{%s: {$in: [%s]}}", in.Field, strings.Join(parts, ", "))
}

// And matches when every child matches. An empty And matches
// everything.
type And struct {
	Children []Filter
}

// NewAnd builds a conjunction, flattening nested Ands.
func NewAnd(children ...Filter) And {
	out := And{}
	for _, c := range children {
		if sub, ok := c.(And); ok {
			out.Children = append(out.Children, sub.Children...)
			continue
		}
		if c != nil {
			out.Children = append(out.Children, c)
		}
	}
	return out
}

// Matches implements Filter.
func (a And) Matches(doc bson.Doc) bool {
	for _, c := range a.Children {
		if !c.Matches(doc) {
			return false
		}
	}
	return true
}

func (a And) String() string {
	parts := make([]string, len(a.Children))
	for i, c := range a.Children {
		parts[i] = c.String()
	}
	return fmt.Sprintf("{$and: [%s]}", strings.Join(parts, ", "))
}

// Or matches when any child matches. An empty Or matches nothing.
type Or struct {
	Children []Filter
}

// NewOr builds a disjunction.
func NewOr(children ...Filter) Or {
	out := Or{}
	for _, c := range children {
		if c != nil {
			out.Children = append(out.Children, c)
		}
	}
	return out
}

// Matches implements Filter.
func (o Or) Matches(doc bson.Doc) bool {
	for _, c := range o.Children {
		if c.Matches(doc) {
			return true
		}
	}
	return false
}

func (o Or) String() string {
	parts := make([]string, len(o.Children))
	for i, c := range o.Children {
		parts[i] = c.String()
	}
	return fmt.Sprintf("{$or: [%s]}", strings.Join(parts, ", "))
}

// GeoWithin matches documents whose GeoJSON point field lies inside
// the rectangle (the $geoWithin/$geometry form used throughout the
// paper; the store supports axis-aligned boxes).
type GeoWithin struct {
	Field string
	Rect  geo.Rect
}

// Matches implements Filter.
func (g GeoWithin) Matches(doc bson.Doc) bool {
	p, ok := pointAt(doc, g.Field)
	return ok && g.Rect.Contains(p)
}

// pointAt reads the GeoJSON point at a (dotted) path: straight from
// the bytes of an encoded document, through the decoded value
// otherwise.
func pointAt(doc bson.Doc, path string) (geo.Point, bool) {
	if raw, ok := rawOf(doc); ok {
		v, ok := raw.LookupRaw(path)
		if !ok {
			return geo.Point{}, false
		}
		lon, lat, ok := v.GeoPoint()
		return geo.Point{Lon: lon, Lat: lat}, ok
	}
	v, ok := doc.Lookup(path)
	if !ok {
		return geo.Point{}, false
	}
	return geo.PointFromGeoJSON(v)
}

func (g GeoWithin) String() string {
	return fmt.Sprintf("{%s: {$geoWithin: {$geometry: %s}}}",
		g.Field, geo.GeoJSONPolygonFromRect(g.Rect))
}

// compile returns the filter with every comparison constant classified
// once (Cmp.k, In.ks), so that matching a document reads no constant
// through an interface. The result is the same filter: same types,
// same rendering, same answers.
func compile(f Filter) Filter {
	switch t := f.(type) {
	case Cmp:
		if t.k == nil {
			k := operandOf(t.Value)
			t.k = &k
		}
		return t
	case In:
		if t.ks == nil {
			t.ks = operandsOf(t.Values)
		}
		return t
	case And:
		return And{Children: compileAll(t.Children)}
	case Or:
		return Or{Children: compileAll(t.Children)}
	}
	return f
}

func operandsOf(vs []any) []operand {
	out := make([]operand, len(vs))
	for i, v := range vs {
		out[i] = operandOf(v)
	}
	return out
}

func compileAll(fs []Filter) []Filter {
	out := make([]Filter, len(fs))
	for i, f := range fs {
		out[i] = compile(f)
	}
	return out
}

// TimeRangeFilter is a convenience builder for the temporal constraint
// {field: {$gte: from, $lte: to}}.
func TimeRangeFilter(field string, from, to any) Filter {
	return NewAnd(
		Cmp{Field: field, Op: OpGTE, Value: from},
		Cmp{Field: field, Op: OpLTE, Value: to},
	)
}
