// Package bson implements the document model of the store: ordered
// documents with typed values, a canonical cross-type ordering, and a
// compact binary encoding with exact size accounting.
//
// The model mirrors the BSON documents that MongoDB stores: a document
// is an ordered list of (key, value) elements, where a value is one of
// a small set of kinds (null, bool, int32, int64, float64, string,
// datetime, object id, array, embedded document). The binary encoding
// follows the BSON layout (little-endian scalars, length-prefixed
// documents, NUL-terminated keys) so that document sizes reported by
// the storage layer match what a real document store would report.
package bson

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// Kind identifies the type of a Value. The numeric order of the Kind
// constants is NOT the canonical comparison order; see canonicalClass.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt32
	KindInt64
	KindFloat64
	KindString
	KindDateTime
	KindObjectID
	KindArray
	KindDocument
	KindMinKey // sorts before everything; used for chunk bounds
	KindMaxKey // sorts after everything; used for chunk bounds
)

// String returns the BSON type name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt32:
		return "int"
	case KindInt64:
		return "long"
	case KindFloat64:
		return "double"
	case KindString:
		return "string"
	case KindDateTime:
		return "date"
	case KindObjectID:
		return "objectId"
	case KindArray:
		return "array"
	case KindDocument:
		return "object"
	case KindMinKey:
		return "minKey"
	case KindMaxKey:
		return "maxKey"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MinKey and MaxKey are sentinel values that sort before and after all
// other values. They are used for open chunk boundaries, exactly like
// MongoDB's $minKey/$maxKey.
type minKey struct{}
type maxKey struct{}

// MinKey sorts before every other value.
var MinKey = minKey{}

// MaxKey sorts after every other value.
var MaxKey = maxKey{}

// A is an array value.
type A []any

// Elem is a single (key, value) element of a document.
type Elem struct {
	Key   string
	Value any
}

// D is a convenience literal form for building documents in order:
//
//	doc := bson.FromD(bson.D{{"a", 1}, {"b", "x"}})
type D []Elem

// Document is an ordered set of key/value elements. The zero value is
// an empty document ready to use.
type Document struct {
	elems []Elem
}

// FromD builds a Document from a D literal, preserving order.
func FromD(d D) *Document {
	doc := &Document{elems: make([]Elem, len(d))}
	copy(doc.elems, d)
	return doc
}

// NewDocument returns an empty document.
func NewDocument() *Document { return &Document{} }

// NewDocumentCap returns an empty document with room for n elements,
// so a builder that knows its field count grows the element list once.
func NewDocumentCap(n int) *Document { return &Document{elems: make([]Elem, 0, n)} }

// Len returns the number of elements.
func (d *Document) Len() int { return len(d.elems) }

// Keys returns the element keys in order.
func (d *Document) Keys() []string {
	keys := make([]string, len(d.elems))
	for i, e := range d.elems {
		keys[i] = e.Key
	}
	return keys
}

// Elems returns the underlying elements in order. The returned slice
// must not be modified.
func (d *Document) Elems() []Elem { return d.elems }

// Set appends the element or replaces the value of an existing key,
// preserving the original position. It returns d for chaining.
func (d *Document) Set(key string, value any) *Document {
	for i := range d.elems {
		if d.elems[i].Key == key {
			d.elems[i].Value = value
			return d
		}
	}
	d.elems = append(d.elems, Elem{Key: key, Value: value})
	return d
}

// Get returns the value for key, or nil when absent.
func (d *Document) Get(key string) any {
	v, _ := d.Lookup(key)
	return v
}

// Lookup returns the value for a (possibly dotted) path, descending
// into embedded documents, and whether it was found.
func (d *Document) Lookup(path string) (any, bool) {
	cur := d
	for {
		dot := strings.IndexByte(path, '.')
		if dot < 0 {
			for _, e := range cur.elems {
				if e.Key == path {
					return e.Value, true
				}
			}
			return nil, false
		}
		head, rest := path[:dot], path[dot+1:]
		var next any
		found := false
		for _, e := range cur.elems {
			if e.Key == head {
				next = e.Value
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
		sub, ok := next.(*Document)
		if !ok {
			return nil, false
		}
		cur, path = sub, rest
	}
}

// Delete removes the element with the given key, reporting whether it
// was present.
func (d *Document) Delete(key string) bool {
	for i := range d.elems {
		if d.elems[i].Key == key {
			d.elems = append(d.elems[:i], d.elems[i+1:]...)
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the document.
func (d *Document) Clone() *Document {
	out := &Document{elems: make([]Elem, len(d.elems))}
	for i, e := range d.elems {
		out.elems[i] = Elem{Key: e.Key, Value: cloneValue(e.Value)}
	}
	return out
}

func cloneValue(v any) any {
	switch t := v.(type) {
	case *Document:
		return t.Clone()
	case A:
		out := make(A, len(t))
		for i, x := range t {
			out[i] = cloneValue(x)
		}
		return out
	default:
		return v
	}
}

// String renders the document in a relaxed extended-JSON form, mainly
// for debugging and logs.
func (d *Document) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range d.elems {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q: %s", e.Key, FormatValue(e.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// FormatValue renders a single value in the same relaxed form used by
// Document.String.
func FormatValue(v any) string {
	switch t := v.(type) {
	case nil:
		return "null"
	case string:
		return fmt.Sprintf("%q", t)
	case time.Time:
		return fmt.Sprintf("ISODate(%q)", t.UTC().Format(time.RFC3339Nano))
	case *Document:
		return t.String()
	case A:
		parts := make([]string, len(t))
		for i, x := range t {
			parts[i] = FormatValue(x)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case ObjectID:
		return fmt.Sprintf("ObjectId(%q)", t.Hex())
	case minKey:
		return "$minKey"
	case maxKey:
		return "$maxKey"
	default:
		return fmt.Sprintf("%v", t)
	}
}

// KindOf reports the Kind of a value. Unknown Go types panic: the
// store only ever holds values produced through this package.
func KindOf(v any) Kind {
	switch v.(type) {
	case nil:
		return KindNull
	case bool:
		return KindBool
	case int32:
		return KindInt32
	case int64:
		return KindInt64
	case int:
		return KindInt64
	case float64:
		return KindFloat64
	case string:
		return KindString
	case time.Time:
		return KindDateTime
	case ObjectID:
		return KindObjectID
	case A:
		return KindArray
	case *Document:
		return KindDocument
	case minKey:
		return KindMinKey
	case maxKey:
		return KindMaxKey
	default:
		panic(fmt.Sprintf("bson: unsupported value type %T", v))
	}
}

// canonicalClass maps a kind to its position in the canonical BSON
// comparison order (MinKey < Null < Numbers < String < Object < Array
// < ObjectId < Boolean < Date < MaxKey).
func canonicalClass(k Kind) int {
	switch k {
	case KindMinKey:
		return 0
	case KindNull:
		return 1
	case KindInt32, KindInt64, KindFloat64:
		return 2
	case KindString:
		return 3
	case KindDocument:
		return 4
	case KindArray:
		return 5
	case KindObjectID:
		return 6
	case KindBool:
		return 7
	case KindDateTime:
		return 8
	case KindMaxKey:
		return 9
	}
	return 10
}

// CanonicalClass exposes the comparison class of a value for the key
// encoder.
func CanonicalClass(v any) int { return canonicalClass(KindOf(v)) }

// Class is the comparison class of values of this kind — what
// CanonicalClass reports for them.
func (k Kind) Class() int { return canonicalClass(k) }

// NumericValue converts any numeric kind to float64 and reports
// whether the value was numeric. The conversion, and so Compare, is
// exact for integers up to 2^53 in magnitude; every value the store
// produces (Hilbert cells, epoch milliseconds) is far below that.
func NumericValue(v any) (float64, bool) {
	switch t := v.(type) {
	case int32:
		return float64(t), true
	case int64:
		return float64(t), true
	case int:
		return float64(t), true
	case float64:
		return t, true
	}
	return 0, false
}

// Int64Value converts any numeric kind to int64 (truncating floats)
// and reports whether the value was numeric.
func Int64Value(v any) (int64, bool) {
	switch t := v.(type) {
	case int32:
		return int64(t), true
	case int64:
		return t, true
	case int:
		return int64(t), true
	case float64:
		return int64(t), true
	}
	return 0, false
}

// Compare orders two values using the canonical BSON comparison: first
// by canonical class, then within the class by value. It returns a
// negative number, zero, or a positive number as a sorts before, equal
// to, or after b.
func Compare(a, b any) int {
	// Two numbers — every curve-cell bound and numeric class bracket a
	// query plans and routes on — compare without classifying either.
	if fa, ok := NumericValue(a); ok {
		if fb, ok := NumericValue(b); ok {
			return compareFloats(fa, fb)
		}
	}
	ca, cb := canonicalClass(KindOf(a)), canonicalClass(KindOf(b))
	if ca != cb {
		return ca - cb
	}
	switch ca {
	case 0, 1, 9: // minKey, null, maxKey: all equal within class
		return 0
	case 3:
		return strings.Compare(a.(string), b.(string))
	case 4:
		return compareDocuments(a.(*Document), b.(*Document))
	case 5:
		return compareArrays(a.(A), b.(A))
	case 6:
		oa, ob := a.(ObjectID), b.(ObjectID)
		for i := range oa {
			if oa[i] != ob[i] {
				if oa[i] < ob[i] {
					return -1
				}
				return 1
			}
		}
		return 0
	case 7:
		ba, bb := a.(bool), b.(bool)
		switch {
		case ba == bb:
			return 0
		case !ba:
			return -1
		}
		return 1
	case 8:
		ta, tb := a.(time.Time), b.(time.Time)
		switch {
		case ta.Before(tb):
			return -1
		case ta.After(tb):
			return 1
		}
		return 0
	}
	return 0
}

// compareFloats orders numbers as the numeric class does: through
// float64, with NaN equal to everything.
func compareFloats(fa, fb float64) int {
	switch {
	case fa < fb:
		return -1
	case fa > fb:
		return 1
	}
	return 0
}

func compareDocuments(a, b *Document) int {
	n := len(a.elems)
	if len(b.elems) < n {
		n = len(b.elems)
	}
	for i := 0; i < n; i++ {
		if c := strings.Compare(a.elems[i].Key, b.elems[i].Key); c != 0 {
			return c
		}
		if c := Compare(a.elems[i].Value, b.elems[i].Value); c != 0 {
			return c
		}
	}
	return len(a.elems) - len(b.elems)
}

func compareArrays(a, b A) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// Equal reports whether a and b compare equal under Compare.
func Equal(a, b any) bool { return Compare(a, b) == 0 }

// SortValues sorts a slice of values in canonical order, in place.
func SortValues(vs []any) {
	slices.SortFunc(vs, Compare)
}

// Normalize maps Go ints to int64 so that documents round-trip through
// the binary encoding with stable kinds.
func Normalize(v any) any {
	if i, ok := v.(int); ok {
		return int64(i)
	}
	return v
}
