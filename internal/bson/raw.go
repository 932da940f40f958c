package bson

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Doc is the read surface filters evaluate against: a decoded
// *Document or an encoded Raw document. Matching on Raw avoids
// decoding the candidate documents an index scan examines, the way a
// server matches on the stored binary form.
type Doc interface {
	// Lookup resolves a (possibly dotted) field path.
	Lookup(path string) (any, bool)
}

// Raw is an encoded document that resolves lookups by scanning the
// binary form, decoding only the value at the requested path.
type Raw []byte

// Get returns the value at a (possibly dotted) path, or nil when
// absent — the convenience twin of Lookup.
func (r Raw) Get(path string) any {
	v, _ := r.Lookup(path)
	return v
}

// Decode parses the full document.
func (r Raw) Decode() (*Document, error) { return Unmarshal(r) }

// Lookup implements Doc: LookupRaw, then decode the one value found.
func (r Raw) Lookup(path string) (any, bool) {
	v, ok := r.LookupRaw(path)
	if !ok {
		return nil, false
	}
	return v.Value()
}

// LookupRaw resolves a (possibly dotted) path to the undecoded value
// stored there. It allocates nothing; the typed readers on RawValue
// then read scalars straight from the bytes. A value LookupRaw finds
// may still be malformed inside (an unterminated string, a corrupt
// embedded document): every reader checks what it reads and answers
// "not ok" exactly where Lookup would have answered "not found".
func (r Raw) LookupRaw(path string) (RawValue, bool) {
	raw := []byte(r)
	for {
		dot := strings.IndexByte(path, '.')
		head := path
		if dot >= 0 {
			head = path[:dot]
		}
		tag, value, ok := findRawField(raw, head)
		if !ok {
			return RawValue{}, false
		}
		if dot < 0 {
			return RawValue{tag: tag, data: value}, true
		}
		if tag != tagDocument {
			return RawValue{}, false
		}
		raw, path = value, path[dot+1:]
	}
}

// RawValue is one element's value inside an encoded document: its
// type tag and its bytes, sized by the lookup that produced it
// (scalars have exactly their width; strings, documents and arrays
// carry their length prefix). The zero RawValue reads as nothing.
type RawValue struct {
	tag  byte
	data []byte
}

// Kind reports the value's kind.
func (v RawValue) Kind() Kind {
	switch v.tag {
	case tagBool:
		return KindBool
	case tagInt32:
		return KindInt32
	case tagInt64:
		return KindInt64
	case tagFloat64:
		return KindFloat64
	case tagString:
		return KindString
	case tagDateTime:
		return KindDateTime
	case tagObjectID:
		return KindObjectID
	case tagArray:
		return KindArray
	case tagDocument:
		return KindDocument
	case tagMinKey:
		return KindMinKey
	case tagMaxKey:
		return KindMaxKey
	}
	return KindNull
}

// Value decodes the value, like Raw.Lookup does for the path that led
// here; ok is false when the bytes do not decode.
func (v RawValue) Value() (any, bool) {
	out, _, err := readValue(v.tag, v.data)
	if err != nil {
		return nil, false
	}
	return out, true
}

// Numeric reads any numeric kind as a float64, like NumericValue on
// the decoded value.
func (v RawValue) Numeric() (float64, bool) {
	switch v.tag {
	case tagFloat64:
		return math.Float64frombits(binary.LittleEndian.Uint64(v.data)), true
	case tagInt64:
		return float64(int64(binary.LittleEndian.Uint64(v.data))), true
	case tagInt32:
		return float64(int32(binary.LittleEndian.Uint32(v.data))), true
	}
	return 0, false
}

// Int64 reads an int64 value (and only that kind).
func (v RawValue) Int64() (int64, bool) {
	if v.tag != tagInt64 {
		return 0, false
	}
	return int64(binary.LittleEndian.Uint64(v.data)), true
}

// DateTimeMS reads a datetime as its stored milliseconds since the
// epoch.
func (v RawValue) DateTimeMS() (int64, bool) {
	if v.tag != tagDateTime {
		return 0, false
	}
	return int64(binary.LittleEndian.Uint64(v.data)), true
}

// Bool reads a boolean.
func (v RawValue) Bool() (value, ok bool) {
	if v.tag != tagBool {
		return false, false
	}
	return v.data[0] != 0, true
}

// ObjectID reads an object id.
func (v RawValue) ObjectID() (ObjectID, bool) {
	var id ObjectID
	if v.tag != tagObjectID {
		return id, false
	}
	copy(id[:], v.data)
	return id, true
}

// StringBytes reads a string as a view of its bytes inside the
// document (no terminator); the view must not be modified.
func (v RawValue) StringBytes() ([]byte, bool) {
	if v.tag != tagString || !validValue(tagString, v.data) {
		return nil, false
	}
	return v.data[4 : len(v.data)-1], true
}

// The canonical GeoJSON point's constant bytes: everything before the
// first coordinate (bytes 0-39), between the two (48-50), and after the
// second (59-60) of its 61.
const (
	pointFrameHead = "\x3d\x00\x00\x00" + "\x02type\x00\x06\x00\x00\x00Point\x00" +
		"\x04coordinates\x00\x1b\x00\x00\x00" + "\x010\x00"
	pointFrameMid  = "\x011\x00"
	pointFrameTail = "\x00\x00"
)

// GeoPoint reads a GeoJSON point — an embedded document whose "type"
// is the string "Point" and whose "coordinates" is an array of exactly
// two numbers of any numeric kind, in any field order and with any
// other fields beside them. It accepts exactly the values that
// decoding the embedded document and reading those two fields accepts,
// in one pass over the bytes.
func (v RawValue) GeoPoint() (lon, lat float64, ok bool) {
	if v.tag != tagDocument {
		return 0, 0, false
	}
	// Every point this system stores is Marshal's encoding of
	// {type: "Point", coordinates: [double, double]}: 61 bytes of which
	// all but the two doubles are fixed. Read those in place; any other
	// layout takes the general walk below, which answers the same for
	// this one.
	if d := v.data; len(d) == 61 &&
		string(d[:40]) == pointFrameHead && string(d[48:51]) == pointFrameMid && string(d[59:]) == pointFrameTail {
		return math.Float64frombits(binary.LittleEndian.Uint64(d[40:])),
			math.Float64frombits(binary.LittleEndian.Uint64(d[51:])), true
	}
	body, ok := documentBody(v.data)
	if !ok {
		return 0, 0, false
	}
	// Like a decoded document's Get, the first element of a name wins.
	var sawType, sawCoords bool
	for len(body) > 0 {
		tag, key, value, rest, ok := nextElement(body)
		if !ok {
			return 0, 0, false
		}
		body = rest
		if !sawCoords && string(key) == "coordinates" {
			sawCoords = true
			if lon, lat, ok = coordinatePair(tag, value); !ok {
				return 0, 0, false
			}
			continue
		}
		if !validValue(tag, value) {
			return 0, 0, false
		}
		if !sawType && string(key) == "type" {
			sawType = true
			if tag != tagString || string(value[4:len(value)-1]) != "Point" {
				return 0, 0, false
			}
		}
	}
	return lon, lat, sawType && sawCoords
}

// coordinatePair reads an array value of exactly two numbers, checking
// the array as it goes (a number, once sized, always decodes; anything
// else fails the pair whether or not it decodes). Element keys are
// ignored, like the decoder ignores them.
func coordinatePair(tag byte, arr []byte) (x, y float64, ok bool) {
	if tag != tagArray {
		return 0, 0, false
	}
	body, ok := documentBody(arr)
	if !ok {
		return 0, 0, false
	}
	n := 0
	for ; len(body) > 0; n++ {
		etag, _, value, rest, ok := nextElement(body)
		if !ok || n == 2 {
			return 0, 0, false
		}
		c, numeric := RawValue{tag: etag, data: value}.Numeric()
		if !numeric {
			return 0, 0, false
		}
		if n == 0 {
			x = c
		} else {
			y = c
		}
		body = rest
	}
	return x, y, n == 2
}

// documentBody returns the element bytes of data when data is exactly
// one length-prefixed, NUL-terminated document, as readDocument
// requires.
func documentBody(data []byte) ([]byte, bool) {
	if len(data) < 5 {
		return nil, false
	}
	total := int(binary.LittleEndian.Uint32(data))
	if total != len(data) || data[total-1] != 0 {
		return nil, false
	}
	return data[4 : total-1], true
}

// nextElement splits the first element off a document body: its tag,
// its key (without the terminator), its value sized by rawValueSize,
// and the elements after it.
func nextElement(body []byte) (tag byte, key, value, rest []byte, ok bool) {
	tag = body[0]
	body = body[1:]
	nul := -1
	for i, c := range body {
		if c == 0 {
			nul = i
			break
		}
	}
	if nul < 0 {
		return 0, nil, nil, nil, false
	}
	key, body = body[:nul], body[nul+1:]
	size, ok := rawValueSize(tag, body)
	if !ok {
		return 0, nil, nil, nil, false
	}
	return tag, key, body[:size], body[size:], true
}

// validValue reports whether a value sized by rawValueSize also
// decodes: a string must end in its terminator, an embedded document
// or array must be well-formed throughout. Fixed-width kinds always
// decode.
func validValue(tag byte, value []byte) bool {
	switch tag {
	case tagString:
		return value[len(value)-1] == 0
	case tagDocument, tagArray:
		body, ok := documentBody(value)
		if ok {
			_, ok = validBody(body, false)
		}
		return ok
	}
	return true
}

// Validate walks an encoded document without decoding it and reports
// whether Unmarshal would accept exactly these bytes: err is nil
// exactly when it would. canonical adds that the bytes are what
// Marshal writes for the decoded document, i.e. Marshal(Unmarshal(b))
// equals b; the decoder is more lenient than the encoder in two places
// (any non-zero bool byte reads as true, array element keys are
// ignored), and a document using either is valid but not canonical.
// Validate allocates nothing on valid input.
func Validate(b []byte) (canonical bool, err error) {
	body, ok := documentBody(b)
	if !ok {
		return false, errMalformed(b)
	}
	canonical, ok = validBody(body, false)
	if !ok {
		return false, errMalformed(b)
	}
	return canonical, nil
}

// errMalformed names what is wrong with a document Validate rejected.
// The walk above only answers yes or no; the decoder knows why.
func errMalformed(b []byte) error {
	if _, err := Unmarshal(b); err != nil {
		return err
	}
	return fmt.Errorf("bson: malformed document")
}

// validBody checks every element of a document or array body the way
// readDocument does, and reports whether the body is in the encoder's
// form: bool payloads 0 or 1 and, in an array, keys "0".."n-1".
func validBody(body []byte, array bool) (canonical, ok bool) {
	canonical = true
	for i := 0; len(body) > 0; i++ {
		tag, key, value, rest, ok := nextElement(body)
		if !ok {
			return false, false
		}
		body = rest
		if array && !isIndexKey(key, i) {
			canonical = false
		}
		switch tag {
		case tagBool:
			canonical = canonical && value[0] <= 1
		case tagDocument, tagArray:
			inner, ok := documentBody(value)
			if !ok {
				return false, false
			}
			c, ok := validBody(inner, tag == tagArray)
			if !ok {
				return false, false
			}
			canonical = canonical && c
		default:
			if !validValue(tag, value) {
				return false, false
			}
		}
	}
	return canonical, true
}

// isIndexKey reports whether key is the decimal form of i, the key the
// encoder gives the i'th array element.
func isIndexKey(key []byte, i int) bool {
	var buf [20]byte
	return string(key) == string(strconv.AppendInt(buf[:0], int64(i), 10))
}

// findRawField locates one element in an encoded document, returning
// its tag and the bytes of its value (sized for scalar tags; the full
// length-prefixed body for strings, documents and arrays).
func findRawField(raw []byte, key string) (byte, []byte, bool) {
	if len(raw) < 5 {
		return 0, nil, false
	}
	total := int(binary.LittleEndian.Uint32(raw))
	if total < 5 || total > len(raw) {
		return 0, nil, false
	}
	body := raw[4 : total-1]
	for len(body) > 0 {
		tag, name, value, rest, ok := nextElement(body)
		if !ok {
			return 0, nil, false
		}
		if string(name) == key {
			return tag, value, true
		}
		body = rest
	}
	return 0, nil, false
}

// rawValueSize returns the encoded size of a value with the given tag
// at the head of body.
func rawValueSize(tag byte, body []byte) (int, bool) {
	switch tag {
	case tagNull, tagMinKey, tagMaxKey:
		return 0, true
	case tagBool:
		return 1, len(body) >= 1
	case tagInt32:
		return 4, len(body) >= 4
	case tagInt64, tagFloat64, tagDateTime:
		return 8, len(body) >= 8
	case tagObjectID:
		return 12, len(body) >= 12
	case tagString:
		if len(body) < 4 {
			return 0, false
		}
		n := 4 + int(binary.LittleEndian.Uint32(body))
		return n, n >= 5 && len(body) >= n
	case tagDocument, tagArray:
		if len(body) < 4 {
			return 0, false
		}
		n := int(binary.LittleEndian.Uint32(body))
		return n, n >= 5 && len(body) >= n
	default:
		return 0, false
	}
}

var (
	_ Doc = (*Document)(nil)
	_ Doc = Raw(nil)
)
