// Package query implements the store's query engine. A query is a
// Spec: a $geoWithin rectangle, a date window and, on the Hilbert and
// ST-Hash approaches, the cover's ranges of the key field. The package
// plans index bounds straight from the spec's fields, runs Mongo-style
// candidate-plan trials, and executes with instrumentation that
// reports the keys-examined / docs-examined / returned counters the
// paper's evaluation is built on.
package query

import "repro/internal/bson"

// Filter is a predicate over documents: a *Spec, a *Prepared one, or
// the residual a plan re-checks.
type Filter interface {
	// Matches reports whether the document satisfies the predicate.
	Matches(doc bson.Doc) bool
	// String renders the filter in the paper's query language.
	String() string
}
