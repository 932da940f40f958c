package query

import (
	"bytes"
	"time"

	"repro/internal/bson"
)

// operand is one value held unboxed: a field read from a document, or
// a query constant classified once. Predicates compare operands, so a
// raw document and a decoded one run the same comparison and differ
// only in how the field is read.
//
// kind is the value's kind with the three numeric kinds collapsed to
// KindFloat64: every comparison class other than "number" has exactly
// one kind, so two operands are in the same class — the server's type
// bracketing — exactly when their kinds are equal.
type operand struct {
	kind bson.Kind
	b    bool          // KindBool
	num  float64       // KindFloat64: any numeric kind, compared as bson.Compare compares them
	t    time.Time     // KindDateTime
	oid  bson.ObjectID // KindObjectID
	text []byte        // KindString
	rest any           // KindDocument, KindArray: the decoded value
}

// operandOf classifies a decoded value (Go ints included, so query
// constants need no separate normalisation).
func operandOf(v any) operand {
	switch t := v.(type) {
	case nil:
		return operand{kind: bson.KindNull}
	case bool:
		return operand{kind: bson.KindBool, b: t}
	case int32:
		return operand{kind: bson.KindFloat64, num: float64(t)}
	case int64:
		return operand{kind: bson.KindFloat64, num: float64(t)}
	case int:
		return operand{kind: bson.KindFloat64, num: float64(t)}
	case float64:
		return operand{kind: bson.KindFloat64, num: t}
	case string:
		return operand{kind: bson.KindString, text: []byte(t)}
	case time.Time:
		return operand{kind: bson.KindDateTime, t: t}
	case bson.ObjectID:
		return operand{kind: bson.KindObjectID, oid: t}
	}
	// Documents, arrays and the key-space sentinels; KindOf panics on
	// a type the document model does not have.
	return operand{kind: bson.KindOf(v), rest: v}
}

// operandOfRaw reads a stored value without decoding it (documents
// and arrays excepted: they compare element-wise and are decoded). ok
// is false for a value that does not decode — a lookup of it finds
// nothing.
func operandOfRaw(v bson.RawValue) (operand, bool) {
	switch kind := v.Kind(); kind {
	case bson.KindBool:
		b, _ := v.Bool()
		return operand{kind: kind, b: b}, true
	case bson.KindInt32, bson.KindInt64, bson.KindFloat64:
		f, _ := v.Numeric()
		return operand{kind: bson.KindFloat64, num: f}, true
	case bson.KindString:
		s, ok := v.StringBytes()
		return operand{kind: kind, text: s}, ok
	case bson.KindDateTime:
		ms, _ := v.DateTimeMS()
		return operand{kind: kind, t: time.UnixMilli(ms)}, true
	case bson.KindObjectID:
		id, _ := v.ObjectID()
		return operand{kind: kind, oid: id}, true
	case bson.KindDocument, bson.KindArray:
		decoded, ok := v.Value()
		return operand{kind: kind, rest: decoded}, ok
	default: // null, minKey, maxKey carry no payload
		return operand{kind: kind}, true
	}
}

// compare orders two operands of the same kind the way bson.Compare
// orders the values they hold.
func (a *operand) compare(b *operand) int {
	switch a.kind {
	case bson.KindFloat64:
		switch {
		case a.num < b.num:
			return -1
		case a.num > b.num:
			return 1
		}
		return 0
	case bson.KindDateTime:
		return a.t.Compare(b.t)
	case bson.KindString:
		return bytes.Compare(a.text, b.text)
	case bson.KindObjectID:
		return bytes.Compare(a.oid[:], b.oid[:])
	case bson.KindBool:
		switch {
		case a.b == b.b:
			return 0
		case !a.b:
			return -1
		}
		return 1
	case bson.KindDocument, bson.KindArray:
		return bson.Compare(a.rest, b.rest)
	}
	return 0 // null, minKey, maxKey: one value per class
}

// rawOf reports the encoded bytes behind a document handed to a
// filter: a bson.Raw, or the *bson.Raw the executor passes so that
// putting each scanned document into the interface allocates nothing.
func rawOf(doc bson.Doc) (bson.Raw, bool) {
	switch d := doc.(type) {
	case *bson.Raw:
		return *d, true
	case bson.Raw:
		return d, true
	}
	return nil, false
}

// fieldOf reads the field at a (dotted) path as an operand.
func fieldOf(doc bson.Doc, path string) (operand, bool) {
	if raw, ok := rawOf(doc); ok {
		v, ok := raw.LookupRaw(path)
		if !ok {
			return operand{}, false
		}
		return operandOfRaw(v)
	}
	v, ok := doc.Lookup(path)
	if !ok {
		return operand{}, false
	}
	return operandOf(v), true
}
