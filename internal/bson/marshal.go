package bson

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"time"
)

// Binary element type tags, matching the BSON specification where the
// kind exists there.
const (
	tagFloat64  byte = 0x01
	tagString   byte = 0x02
	tagDocument byte = 0x03
	tagArray    byte = 0x04
	tagObjectID byte = 0x07
	tagBool     byte = 0x08
	tagDateTime byte = 0x09
	tagNull     byte = 0x0A
	tagInt32    byte = 0x10
	tagInt64    byte = 0x12
	tagMinKey   byte = 0xFF
	tagMaxKey   byte = 0x7F
)

// Marshal encodes the document into the binary layout: a little-endian
// int32 total length, the elements (tag byte, NUL-terminated key,
// payload), and a terminating NUL.
func Marshal(d *Document) []byte {
	buf := make([]byte, 0, RawSize(d))
	return appendDocument(buf, d)
}

// MarshalAll encodes a batch of documents, each into its own slice —
// the one encoding a document gets on its way into the store.
func MarshalAll(docs []*Document) [][]byte {
	raws := make([][]byte, len(docs))
	for i, d := range docs {
		raws[i] = Marshal(d)
	}
	return raws
}

// RawSize returns the exact encoded size of the document in bytes
// without encoding it. The storage layer uses this for chunk-size
// accounting and for the Table 6 data-size experiment.
func RawSize(d *Document) int {
	n := 4 + 1 // length prefix + terminator
	for _, e := range d.elems {
		n += 1 + len(e.Key) + 1 + valueSize(e.Value)
	}
	return n
}

// ValueSize returns the encoded size of v as an element's value: what
// the element occupies after its tag byte and NUL-terminated key. With
// AppendElement it lets a caller that writes some fields itself encode
// the rest exactly as Marshal would, into a buffer sized once.
func ValueSize(v any) int { return valueSize(v) }

func valueSize(v any) int {
	switch t := v.(type) {
	case nil, minKey, maxKey:
		return 0
	case bool:
		return 1
	case int32:
		return 4
	case int64, int, float64, time.Time:
		return 8
	case string:
		return 4 + len(t) + 1
	case ObjectID:
		return 12
	case *Document:
		return RawSize(t)
	case A:
		n := 4 + 1
		for i, x := range t {
			n += 1 + decimalLen(i) + 1 + valueSize(x)
		}
		return n
	default:
		panic(fmt.Sprintf("bson: unsupported value type %T", v))
	}
}

// decimalLen returns the length of the decimal representation of the
// non-negative i; array elements are keyed by their index string, per
// the BSON spec.
func decimalLen(i int) int {
	n := 1
	for ; i >= 10; i /= 10 {
		n++
	}
	return n
}

func appendDocument(buf []byte, d *Document) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	for _, e := range d.elems {
		buf = appendElement(buf, e.Key, e.Value)
	}
	buf = append(buf, 0)
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start))
	return buf
}

// AppendElement appends one element — tag, NUL-terminated key, value —
// in Marshal's encoding. The key must not contain a NUL byte.
func AppendElement(buf []byte, key string, v any) []byte { return appendElement(buf, key, v) }

func appendElement(buf []byte, key string, v any) []byte {
	switch t := v.(type) {
	case nil:
		buf = append(buf, tagNull)
		buf = appendCString(buf, key)
	case minKey:
		buf = append(buf, tagMinKey)
		buf = appendCString(buf, key)
	case maxKey:
		buf = append(buf, tagMaxKey)
		buf = appendCString(buf, key)
	case bool:
		buf = append(buf, tagBool)
		buf = appendCString(buf, key)
		if t {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case int32:
		buf = append(buf, tagInt32)
		buf = appendCString(buf, key)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(t))
	case int:
		buf = append(buf, tagInt64)
		buf = appendCString(buf, key)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(t)))
	case int64:
		buf = append(buf, tagInt64)
		buf = appendCString(buf, key)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t))
	case float64:
		buf = append(buf, tagFloat64)
		buf = appendCString(buf, key)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t))
	case string:
		buf = append(buf, tagString)
		buf = appendCString(buf, key)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t)+1))
		buf = append(buf, t...)
		buf = append(buf, 0)
	case time.Time:
		buf = append(buf, tagDateTime)
		buf = appendCString(buf, key)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.UnixMilli()))
	case ObjectID:
		buf = append(buf, tagObjectID)
		buf = appendCString(buf, key)
		buf = append(buf, t[:]...)
	case *Document:
		buf = append(buf, tagDocument)
		buf = appendCString(buf, key)
		buf = appendDocument(buf, t)
	case A:
		buf = append(buf, tagArray)
		buf = appendCString(buf, key)
		start := len(buf)
		buf = append(buf, 0, 0, 0, 0)
		for i, x := range t {
			// strconv.Itoa does not allocate below 100.
			buf = appendElement(buf, strconv.Itoa(i), x)
		}
		buf = append(buf, 0)
		binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start))
	default:
		panic(fmt.Sprintf("bson: unsupported value type %T", v))
	}
	return buf
}

func appendCString(buf []byte, s string) []byte {
	buf = append(buf, s...)
	return append(buf, 0)
}

// Unmarshal decodes a document previously produced by Marshal. It
// returns an error for truncated or corrupt input.
func Unmarshal(data []byte) (*Document, error) {
	doc, rest, err := readDocument(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("bson: %d trailing bytes after document", len(rest))
	}
	return doc, nil
}

func readDocument(data []byte) (*Document, []byte, error) {
	if len(data) < 5 {
		return nil, nil, fmt.Errorf("bson: document too short (%d bytes)", len(data))
	}
	total := int(binary.LittleEndian.Uint32(data))
	if total < 5 || total > len(data) {
		return nil, nil, fmt.Errorf("bson: invalid document length %d", total)
	}
	body, rest := data[4:total-1], data[total:]
	if data[total-1] != 0 {
		return nil, nil, fmt.Errorf("bson: missing document terminator")
	}
	doc := NewDocument()
	for len(body) > 0 {
		tag := body[0]
		body = body[1:]
		key, remaining, err := readCString(body)
		if err != nil {
			return nil, nil, err
		}
		body = remaining
		var v any
		v, body, err = readValue(tag, body)
		if err != nil {
			return nil, nil, fmt.Errorf("bson: field %q: %w", key, err)
		}
		doc.elems = append(doc.elems, Elem{Key: key, Value: v})
	}
	return doc, rest, nil
}

func readCString(data []byte) (string, []byte, error) {
	for i, b := range data {
		if b == 0 {
			return string(data[:i]), data[i+1:], nil
		}
	}
	return "", nil, fmt.Errorf("bson: unterminated key")
}

func readValue(tag byte, data []byte) (any, []byte, error) {
	need := func(n int) error {
		if len(data) < n {
			return fmt.Errorf("truncated value (need %d bytes, have %d)", n, len(data))
		}
		return nil
	}
	switch tag {
	case tagNull:
		return nil, data, nil
	case tagMinKey:
		return MinKey, data, nil
	case tagMaxKey:
		return MaxKey, data, nil
	case tagBool:
		if err := need(1); err != nil {
			return nil, nil, err
		}
		return data[0] != 0, data[1:], nil
	case tagInt32:
		if err := need(4); err != nil {
			return nil, nil, err
		}
		return int32(binary.LittleEndian.Uint32(data)), data[4:], nil
	case tagInt64:
		if err := need(8); err != nil {
			return nil, nil, err
		}
		return int64(binary.LittleEndian.Uint64(data)), data[8:], nil
	case tagFloat64:
		if err := need(8); err != nil {
			return nil, nil, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(data)), data[8:], nil
	case tagDateTime:
		if err := need(8); err != nil {
			return nil, nil, err
		}
		ms := int64(binary.LittleEndian.Uint64(data))
		return time.UnixMilli(ms).UTC(), data[8:], nil
	case tagString:
		if err := need(4); err != nil {
			return nil, nil, err
		}
		n := int(binary.LittleEndian.Uint32(data))
		if n < 1 || len(data) < 4+n {
			return nil, nil, fmt.Errorf("invalid string length %d", n)
		}
		s := string(data[4 : 4+n-1])
		if data[4+n-1] != 0 {
			return nil, nil, fmt.Errorf("unterminated string")
		}
		return s, data[4+n:], nil
	case tagObjectID:
		if err := need(12); err != nil {
			return nil, nil, err
		}
		var id ObjectID
		copy(id[:], data[:12])
		return id, data[12:], nil
	case tagDocument:
		return readEmbedded(data, false)
	case tagArray:
		return readEmbedded(data, true)
	default:
		return nil, nil, fmt.Errorf("unknown tag 0x%02x", tag)
	}
}

func readEmbedded(data []byte, asArray bool) (any, []byte, error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("truncated embedded document")
	}
	total := int(binary.LittleEndian.Uint32(data))
	if total < 5 || total > len(data) {
		return nil, nil, fmt.Errorf("invalid embedded document length %d", total)
	}
	doc, _, err := readDocument(data[:total])
	if err != nil {
		return nil, nil, err
	}
	rest := data[total:]
	if !asArray {
		return doc, rest, nil
	}
	arr := make(A, 0, doc.Len())
	for _, e := range doc.Elems() {
		arr = append(arr, e.Value)
	}
	return arr, rest, nil
}
