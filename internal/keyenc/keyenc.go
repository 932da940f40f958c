// Package keyenc encodes (composite) index key values as byte strings
// whose bytewise order equals the canonical value order of the
// document model. All B-tree indexes and chunk boundaries in the store
// operate on these encoded keys, so a single bytes.Compare decides
// both index scans and query routing.
//
// Layout per value: one class byte (the canonical comparison class),
// then a class-specific order-preserving payload. Composite keys are
// the concatenation of their components; because every payload is
// either fixed-width or escape-terminated, component boundaries never
// bleed into each other and prefix ordering matches tuple ordering.
package keyenc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/bson"
)

// Class bytes. They follow the canonical BSON ordering so that
// cross-type comparisons order correctly.
const (
	classMinKey   byte = 0x00
	classNull     byte = 0x10
	classNumber   byte = 0x20
	classString   byte = 0x30
	classDocument byte = 0x40
	classArray    byte = 0x50
	classObjectID byte = 0x60
	classBool     byte = 0x70
	classDateTime byte = 0x80
	classMaxKey   byte = 0xF0
)

// AppendValue appends the order-preserving encoding of v to dst and
// returns the extended slice. It panics on unsupported value types,
// which indicates a bug in the caller: index keys are always built
// from validated document fields.
func AppendValue(dst []byte, v any) []byte {
	switch t := v.(type) {
	case nil:
		return append(dst, classNull)
	case bool:
		dst = append(dst, classBool)
		if t {
			return append(dst, 1)
		}
		return append(dst, 0)
	case int32:
		return AppendNumber(dst, float64(t))
	case int64:
		return AppendNumber(dst, float64(t))
	case int:
		return AppendNumber(dst, float64(t))
	case float64:
		return AppendNumber(dst, t)
	case string:
		dst = append(dst, classString)
		return appendEscaped(dst, t)
	case time.Time:
		dst = append(dst, classDateTime)
		return appendOrderedInt64(dst, t.UnixMilli())
	case bson.ObjectID:
		dst = append(dst, classObjectID)
		return append(dst, t[:]...)
	case *bson.Document:
		dst = append(dst, classDocument)
		var inner []byte
		for _, e := range t.Elems() {
			inner = appendEscapedField(inner, e.Key)
			inner = AppendValue(inner, e.Value)
		}
		return appendEscaped(dst, inner)
	case bson.A:
		dst = append(dst, classArray)
		var inner []byte
		for _, x := range t {
			inner = AppendValue(inner, x)
		}
		return appendEscaped(dst, inner)
	default:
		switch bson.KindOf(v) {
		case bson.KindMinKey:
			return append(dst, classMinKey)
		case bson.KindMaxKey:
			return append(dst, classMaxKey)
		}
		panic(fmt.Sprintf("keyenc: unsupported value type %T", v))
	}
}

// AppendRaw appends the encoding of an undecoded document value: the
// bytes AppendValue produces for the value decoded and normalised,
// written straight from the stored form for every scalar kind.
// Documents and arrays (never index or sort fields in this store)
// take the decoding path. ok is false, and dst unchanged, for a value
// that does not decode.
func AppendRaw(dst []byte, v bson.RawValue) (out []byte, ok bool) {
	switch v.Kind() {
	case bson.KindNull:
		return append(dst, classNull), true
	case bson.KindMinKey:
		return append(dst, classMinKey), true
	case bson.KindMaxKey:
		return append(dst, classMaxKey), true
	case bson.KindBool:
		b, _ := v.Bool()
		if b {
			return append(dst, classBool, 1), true
		}
		return append(dst, classBool, 0), true
	case bson.KindInt32, bson.KindInt64, bson.KindFloat64:
		f, _ := v.Numeric()
		return AppendNumber(dst, f), true
	case bson.KindDateTime:
		ms, _ := v.DateTimeMS()
		return appendOrderedInt64(append(dst, classDateTime), ms), true
	case bson.KindObjectID:
		id, _ := v.ObjectID()
		return append(append(dst, classObjectID), id[:]...), true
	case bson.KindString:
		s, ok := v.StringBytes()
		if !ok {
			return dst, false
		}
		return appendEscaped(append(dst, classString), s), true
	}
	decoded, ok := v.Value()
	if !ok {
		return dst, false
	}
	return AppendValue(dst, decoded), true
}

func appendEscapedField(dst []byte, key string) []byte {
	return appendEscaped(dst, key)
}

// AppendNumber appends the encoding of a numeric value — what
// AppendValue writes for any numeric kind, without boxing it — such
// that bytewise order equals numeric order: flip the sign bit for
// non-negative values, flip all bits for negative values. Integers are
// routed through float64; the store's numeric fields (Hilbert cells,
// epoch milliseconds, coordinates) are all exactly representable.
func AppendNumber(dst []byte, f float64) []byte {
	dst = append(dst, classNumber)
	if f == 0 {
		f = 0 // normalise -0.0 so equal numbers encode identically
	}
	bits := math.Float64bits(f)
	if f >= 0 && !math.Signbit(f) {
		bits |= 1 << 63
	} else {
		bits = ^bits
	}
	return binary.BigEndian.AppendUint64(dst, bits)
}

// Number decodes the numeric component a key begins with: the value
// AppendNumber (or AppendValue, for any numeric kind) encoded. ok is
// false when the key does not begin with a numeric component.
func Number(k []byte) (float64, bool) {
	if len(k) < 9 || k[0] != classNumber {
		return 0, false
	}
	bits := binary.BigEndian.Uint64(k[1:9])
	if bits>>63 == 1 {
		bits &^= 1 << 63
	} else {
		bits = ^bits
	}
	return math.Float64frombits(bits), true
}

// appendOrderedInt64 encodes an int64 with the sign bit flipped so
// unsigned bytewise order equals signed order. Used for datetimes,
// which must keep full 64-bit precision.
func appendOrderedInt64(dst []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(v)^(1<<63))
}

// appendEscaped appends b with 0x00 bytes escaped as {0x00,0xFF} and a
// {0x00,0x00} terminator, so that shorter strings sort before their
// extensions and embedded NULs keep correct order.
func appendEscaped[S ~string | ~[]byte](dst []byte, b S) []byte {
	for i := 0; i < len(b); i++ {
		if c := b[i]; c == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x00)
}

// Encode returns the encoding of a single value.
func Encode(v any) []byte { return AppendValue(nil, v) }

// EncodeComposite returns the concatenated encoding of a tuple of
// values, ordering first by the first component.
func EncodeComposite(vs ...any) []byte {
	var dst []byte
	for _, v := range vs {
		dst = AppendValue(dst, v)
	}
	return dst
}

// PrefixUpperBound returns the smallest byte string greater than every
// string that has prefix k, or nil when no such string exists (k is
// all 0xFF). Range scans over "all keys with this prefix" use it as an
// exclusive upper bound.
func PrefixUpperBound(k []byte) []byte {
	out := bytes.Clone(k)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}

// AppendPrefixUpperBound is PrefixUpperBound writing into dst (which
// it overwrites and returns re-sliced), so resumable scans can reuse
// one buffer instead of cloning per seek. Like PrefixUpperBound it
// returns nil when k is all 0xFF; dst is unchanged in that case.
func AppendPrefixUpperBound(dst, k []byte) []byte {
	for i := len(k) - 1; i >= 0; i-- {
		if k[i] != 0xFF {
			dst = append(dst[:0], k[:i+1]...)
			dst[i]++
			return dst
		}
	}
	return nil
}

// Buf lays many keys out in one flat buffer, so building a query's
// scan or routing bounds costs one allocation instead of a few per key.
// Each key Append returns is a capacity-capped window of the buffer, so
// no key can grow into its neighbour; when the buffer grows, later keys
// land in a new array and the earlier ones stay valid in the old.
type Buf []byte

// Append appends one key — prefix followed by the encoding of v — and
// returns it. AppendPrefixUpperBound(k[:0], k) turns a returned key k
// into its prefix upper bound in place.
func (b *Buf) Append(prefix []byte, v any) []byte {
	start := len(*b)
	*b = AppendValue(append(*b, prefix...), v)
	return (*b)[start:len(*b):len(*b)]
}

// AppendNumber is Append of a number, unboxed.
func (b *Buf) AppendNumber(prefix []byte, f float64) []byte {
	start := len(*b)
	*b = AppendNumber(append(*b, prefix...), f)
	return (*b)[start:len(*b):len(*b)]
}

// AppendString is Append of a string, unboxed.
func (b *Buf) AppendString(prefix []byte, s string) []byte {
	start := len(*b)
	*b = appendEscaped(append(append(*b, prefix...), classString), s)
	return (*b)[start:len(*b):len(*b)]
}

// AppendTime is Append of a date, unboxed.
func (b *Buf) AppendTime(prefix []byte, t time.Time) []byte {
	start := len(*b)
	*b = appendOrderedInt64(append(append(*b, prefix...), classDateTime), t.UnixMilli())
	return (*b)[start:len(*b):len(*b)]
}

// Compare is bytes.Compare, re-exported so callers of this package do
// not need to also import bytes for key comparisons.
func Compare(a, b []byte) int { return bytes.Compare(a, b) }

// ComponentLen returns the byte length of the first encoded value in
// a composite key. Every encoding is self-delimiting, so composite
// keys can be split without a schema; the index skip-scan uses this
// to read the leading field value out of a key.
func ComponentLen(k []byte) (int, error) {
	if len(k) == 0 {
		return 0, fmt.Errorf("keyenc: empty key")
	}
	switch k[0] {
	case classMinKey, classNull, classMaxKey:
		return 1, nil
	case classBool:
		return need(k, 2)
	case classNumber, classDateTime:
		return need(k, 9)
	case classObjectID:
		return need(k, 13)
	case classString, classDocument, classArray:
		// Escaped payload terminated by {0x00, 0x00}.
		for i := 1; i+1 < len(k); i++ {
			if k[i] != 0x00 {
				continue
			}
			if k[i+1] == 0x00 {
				return i + 2, nil
			}
			i++ // skip the escape's second byte
		}
		return 0, fmt.Errorf("keyenc: unterminated escaped component")
	default:
		return 0, fmt.Errorf("keyenc: unknown class byte 0x%02x", k[0])
	}
}

func need(k []byte, n int) (int, error) {
	if len(k) < n {
		return 0, fmt.Errorf("keyenc: truncated component (need %d bytes, have %d)", n, len(k))
	}
	return n, nil
}
