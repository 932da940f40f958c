package core

// The stored document's encodings. Every write path stores the bytes
// encode appends straight from the record; Document builds the same
// document boxed, field by field, and stays as the reference the
// appender is held to (FuzzEncodeRecord) and for callers that want a
// *bson.Document.

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"repro/internal/bson"
	"repro/internal/geo"
)

// Document builds the stored document for the record under this
// store's approach: _id, the GeoJSON location, the date, the
// hilbertIndex (Hilbert approaches) or stHash (ST-Hash), then the
// payload fields. A payload key that repeats keeps its first position
// and its last value. A payload key naming a field the approach writes,
// or holding a NUL byte at any depth, is refused.
func (s *Store) Document(rec Record) (*bson.Document, error) {
	if err := s.checkRecord(rec); err != nil {
		return nil, err
	}
	doc := bson.NewDocumentCap(4 + len(rec.Fields))
	doc.Set(FieldID, s.idGen.New(rec.Time))
	doc.Set(FieldLoc, geo.GeoJSONPoint(rec.Point))
	doc.Set(FieldDate, rec.Time.UTC())
	if s.grid != nil {
		doc.Set(FieldHilbert, int64(s.grid.Encode(rec.Point)))
	}
	if s.sth != nil {
		doc.Set(FieldSTHash, s.sth.Encode(rec.Point, rec.Time))
	}
	for _, e := range rec.Fields {
		doc.Set(e.Key, bson.Normalize(e.Value))
	}
	return doc, nil
}

// The bytes of the fixed fields as bson.Marshal writes them: the tags
// of their kinds, and the GeoJSON point {type: "Point", coordinates:
// [lon, lat]} around its two doubles.
const (
	tagString   = 0x02
	tagDocument = 0x03
	tagObjectID = 0x07
	tagDateTime = 0x09
	tagInt64    = 0x12

	pointHead = "\x3d\x00\x00\x00" + "\x02type\x00\x06\x00\x00\x00Point\x00" +
		"\x04coordinates\x00\x1b\x00\x00\x00" + "\x010\x00"
	pointMid  = "\x011\x00"
	pointTail = "\x00\x00"
	pointSize = len(pointHead) + 8 + len(pointMid) + 8 + len(pointTail)
)

// encode returns the record's stored document in one exact-size
// allocation (len == cap): the bytes bson.Marshal writes for Document's
// result, with the ObjectID drawn in the same order, and nothing
// boxed on the way but the payload values the record already holds.
// It refuses exactly the records Document refuses.
func (s *Store) encode(rec Record) ([]byte, error) {
	if err := s.checkRecord(rec); err != nil {
		return nil, err
	}
	l := s.layout(rec)
	return s.appendRecord(make([]byte, 0, l.size), rec, s.idGen.New(rec.Time), l), nil
}

// recordLayout is what encoding a record works out before it writes:
// the encoding's size, the payload after bson.Document.Set's rule for
// repeated keys, and the ST-Hash string.
type recordLayout struct {
	size   int
	fields bson.D
	sth    string
}

// layout sizes the encoding of a record checkRecord accepted.
func (s *Store) layout(rec Record) recordLayout {
	fields := rec.Fields
	if hasDuplicateKey(fields) {
		fields = dedupe(fields)
	}
	n := 4 + // length prefix
		1 + len(FieldID) + 1 + len(bson.ObjectID{}) +
		1 + len(FieldLoc) + 1 + pointSize +
		1 + len(FieldDate) + 1 + 8 +
		1 // terminator
	if s.grid != nil {
		n += 1 + len(FieldHilbert) + 1 + 8
	}
	var sth string
	if s.sth != nil {
		sth = s.sth.Encode(rec.Point, rec.Time)
		n += 1 + len(FieldSTHash) + 1 + 4 + len(sth) + 1
	}
	for _, e := range fields {
		n += 1 + len(e.Key) + 1 + bson.ValueSize(e.Value)
	}
	return recordLayout{size: n, fields: fields, sth: sth}
}

// appendRecord appends the encoding of a record checkRecord accepted,
// as layout sized it, under an ObjectID already drawn.
func (s *Store) appendRecord(b []byte, rec Record, id bson.ObjectID, l recordLayout) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(l.size))
	b = appendKey(b, tagObjectID, FieldID)
	b = append(b, id[:]...)
	b = appendKey(b, tagDocument, FieldLoc)
	b = append(b, pointHead...)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rec.Point.Lon))
	b = append(b, pointMid...)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rec.Point.Lat))
	b = append(b, pointTail...)
	b = appendKey(b, tagDateTime, FieldDate)
	b = binary.LittleEndian.AppendUint64(b, uint64(rec.Time.UnixMilli()))
	if s.grid != nil {
		b = appendKey(b, tagInt64, FieldHilbert)
		b = binary.LittleEndian.AppendUint64(b, s.grid.Encode(rec.Point))
	}
	if s.sth != nil {
		b = appendKey(b, tagString, FieldSTHash)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(l.sth)+1))
		b = append(b, l.sth...)
		b = append(b, 0)
	}
	for _, e := range l.fields {
		b = bson.AppendElement(b, e.Key, e.Value)
	}
	return append(b, 0)
}

// appendKey appends an element's tag and NUL-terminated key.
func appendKey(b []byte, tag byte, key string) []byte {
	b = append(b, tag)
	b = append(b, key...)
	return append(b, 0)
}

// checkRecord refuses what either encoder would store wrongly: an
// invalid point; a payload key naming a field the approach writes
// itself, which would replace the computed value (or the _id) and
// hide the document from its own query; and a key holding a NUL
// byte at any depth, which would encode to bytes the store cannot
// read back.
func (s *Store) checkRecord(rec Record) error {
	if !rec.Point.Valid() {
		return fmt.Errorf("core: invalid point %v", rec.Point)
	}
	for _, e := range rec.Fields {
		switch {
		case e.Key == FieldID, e.Key == FieldLoc, e.Key == FieldDate,
			e.Key == FieldHilbert && s.grid != nil, e.Key == FieldSTHash && s.sth != nil:
			return fmt.Errorf("core: payload field %q is written by the %s store itself", e.Key, s.cfg.Approach)
		case strings.IndexByte(e.Key, 0) >= 0:
			return fmt.Errorf("core: payload field %q: key holds a NUL byte", e.Key)
		}
		if key, ok := nulKey(e.Value); ok {
			return fmt.Errorf("core: payload field %q: nested key %q holds a NUL byte", e.Key, key)
		}
	}
	return nil
}

// nulKey finds a key holding a NUL byte inside an embedded document
// or array value.
func nulKey(v any) (string, bool) {
	switch t := v.(type) {
	case *bson.Document:
		for _, e := range t.Elems() {
			if strings.IndexByte(e.Key, 0) >= 0 {
				return e.Key, true
			}
			if key, ok := nulKey(e.Value); ok {
				return key, true
			}
		}
	case bson.A:
		for _, x := range t {
			if key, ok := nulKey(x); ok {
				return key, true
			}
		}
	}
	return "", false
}

// hasDuplicateKey reports whether a payload key repeats. A 256-bit set
// of key fingerprints rules out most pairs without comparing them: only
// a key whose fingerprint was seen before is compared with the keys
// before it.
func hasDuplicateKey(fields bson.D) bool {
	var seen [4]uint64
	for i, e := range fields {
		h := keyFingerprint(e.Key)
		word, bit := h>>6, uint64(1)<<(h&63)
		if seen[word]&bit != 0 {
			for _, p := range fields[:i] {
				if p.Key == e.Key {
					return true
				}
			}
		}
		seen[word] |= bit
	}
	return false
}

// keyFingerprint mixes a key's length with its first and last two
// bytes, where generated names (field01, field02, ...) differ.
func keyFingerprint(k string) uint8 {
	n := len(k)
	h := uint8(n)
	if n > 0 {
		h = (h*31+k[0])*31 + k[n-1]
	}
	if n > 1 {
		h = h*31 + k[n-2]
	}
	return h
}

// dedupe applies bson.Document.Set's rule to repeated payload keys: the
// first position, the last value.
func dedupe(fields bson.D) bson.D {
	out := make(bson.D, 0, len(fields))
next:
	for _, e := range fields {
		for i := range out {
			if out[i].Key == e.Key {
				out[i].Value = e.Value
				continue next
			}
		}
		out = append(out, e)
	}
	return out
}
