package wire

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/sfc"
)

// Filter codec: a tagged tree mirroring the query package's filter
// algebra. The router serializes the exact filter it would have
// handed to a LocalConn; the shard server decodes it back into the
// same concrete types, so planning and matching behave identically on
// both sides of the wire.

// Filter node tags.
const (
	ftCmp byte = iota + 1
	ftIn
	ftAnd
	ftOr
	ftGeoWithin
	_ // 6: the polygon predicate, retired in version 7; refused like any unknown tag
	ftKeyRanges
)

// Value tags (the closed set of constant types filters carry).
const (
	vtNil byte = iota
	vtBool
	vtInt64
	vtFloat64
	vtString
	vtTime
)

// maxFilterDepth bounds decode recursion so a crafted deeply-nested
// body cannot overflow the stack.
const maxFilterDepth = 64

// AppendValue encodes one filter constant. The supported set is the
// closed set of types bson.Normalize produces for filter operands;
// anything else is an encoding error (better a loud router-side
// failure than a silently altered predicate).
func AppendValue(buf []byte, v any) ([]byte, error) {
	switch v := bson.Normalize(v).(type) {
	case nil:
		return appendU8(buf, vtNil), nil
	case bool:
		return appendBool(appendU8(buf, vtBool), v), nil
	case int64:
		return appendI64(appendU8(buf, vtInt64), v), nil
	case float64:
		return appendF64(appendU8(buf, vtFloat64), v), nil
	case string:
		return appendString(appendU8(buf, vtString), v), nil
	case time.Time:
		return appendI64(appendU8(buf, vtTime), v.UnixNano()), nil
	default:
		return nil, fmt.Errorf("wire: unencodable filter value %T", v)
	}
}

func decodeValue(d *dec) any {
	switch tag := d.u8("value tag"); tag {
	case vtNil:
		return nil
	case vtBool:
		return d.bool("bool value")
	case vtInt64:
		return d.i64("int64 value")
	case vtFloat64:
		return d.f64("float64 value")
	case vtString:
		return d.string("string value")
	case vtTime:
		return time.Unix(0, d.i64("time value")).UTC()
	default:
		d.fail(fmt.Sprintf("value tag %d", tag))
		return nil
	}
}

// AppendFilter encodes a filter tree.
func AppendFilter(buf []byte, f query.Filter) ([]byte, error) {
	switch f := f.(type) {
	case query.Cmp:
		buf = appendU8(buf, ftCmp)
		buf = appendU8(buf, byte(f.Op))
		buf = appendString(buf, f.Field)
		return AppendValue(buf, f.Value)
	case query.In:
		buf = appendU8(buf, ftIn)
		buf = appendString(buf, f.Field)
		buf = appendU32(buf, uint32(len(f.Values)))
		var err error
		for _, v := range f.Values {
			if buf, err = AppendValue(buf, v); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case query.And:
		return appendChildren(appendU8(buf, ftAnd), f.Children)
	case query.Or:
		return appendChildren(appendU8(buf, ftOr), f.Children)
	case query.GeoWithin:
		buf = appendU8(buf, ftGeoWithin)
		buf = appendString(buf, f.Field)
		return appendRect(buf, f.Rect), nil
	case query.KeyRanges:
		// Ascending ranges as delta varints: each range's gap above the
		// previous one, then its span.
		buf = appendU32(appendString(appendU8(buf, ftKeyRanges), f.Field), uint32(len(f.Ranges)))
		next := uint64(0)
		for _, r := range f.Ranges {
			if r.Lo < next || r.Hi < r.Lo || r.Hi >= 1<<53 {
				return nil, fmt.Errorf("wire: key ranges not ascending below 2^53 at %v", r)
			}
			buf = binary.AppendUvarint(binary.AppendUvarint(buf, r.Lo-next), r.Hi-r.Lo)
			next = r.Hi + 1
		}
		return buf, nil
	case *query.Prepared:
		// Planning state is per process; the filter is what travels.
		return AppendFilter(buf, f.Filter())
	default:
		return nil, fmt.Errorf("wire: unencodable filter %T", f)
	}
}

func appendChildren(buf []byte, children []query.Filter) ([]byte, error) {
	buf = appendU32(buf, uint32(len(children)))
	var err error
	for _, c := range children {
		if buf, err = AppendFilter(buf, c); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func appendRect(buf []byte, r geo.Rect) []byte {
	buf = appendF64(buf, r.Min.Lon)
	buf = appendF64(buf, r.Min.Lat)
	buf = appendF64(buf, r.Max.Lon)
	return appendF64(buf, r.Max.Lat)
}

// DecodeFilter decodes an encoded filter tree, consuming the whole
// input.
func DecodeFilter(b []byte) (query.Filter, error) {
	d := &dec{b: b}
	f := decodeFilter(d, 0)
	if err := d.finish(); err != nil {
		return nil, err
	}
	return f, nil
}

func decodeFilter(d *dec, depth int) query.Filter {
	if depth > maxFilterDepth {
		d.fail("filter nesting depth")
		return nil
	}
	switch tag := d.u8("filter tag"); tag {
	case ftCmp:
		op := query.CmpOp(d.u8("cmp op"))
		if op > query.OpLTE {
			d.fail("cmp op range")
			return nil
		}
		return query.Cmp{Op: op, Field: d.string("cmp field"), Value: decodeValue(d)}
	case ftIn:
		field := d.string("in field")
		n := d.count(1, "in values")
		values := make([]any, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			values = append(values, decodeValue(d))
		}
		return query.In{Field: field, Values: values}
	case ftAnd:
		return query.And{Children: decodeChildren(d, depth)}
	case ftOr:
		return query.Or{Children: decodeChildren(d, depth)}
	case ftGeoWithin:
		return query.GeoWithin{Field: d.string("geo field"), Rect: decodeRect(d)}
	case ftKeyRanges:
		return decodeKeyRanges(d)
	default:
		d.fail(fmt.Sprintf("filter tag %d", tag))
		return nil
	}
}

func decodeChildren(d *dec, depth int) []query.Filter {
	n := d.count(1, "filter children")
	children := make([]query.Filter, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		if c := decodeFilter(d, depth+1); c != nil {
			children = append(children, c)
		}
	}
	return children
}

// decodeKeyRanges refuses ranges reaching 2^53, past which a
// KeyRanges is not defined.
func decodeKeyRanges(d *dec) query.Filter {
	k := query.KeyRanges{Field: d.string("key ranges field")}
	n := d.count(2, "key ranges")
	k.Ranges = make([]sfc.Range, 0, n)
	next := uint64(0)
	for i := 0; i < n && d.err == nil; i++ {
		lo := next + d.uvarint("key range gap")
		hi := lo + d.uvarint("key range span")
		if lo < next || hi < lo || hi >= 1<<53 {
			d.fail("key range bounds")
			return nil
		}
		k.Ranges = append(k.Ranges, sfc.Range{Lo: lo, Hi: hi})
		next = hi + 1
	}
	return k
}

func decodeRect(d *dec) geo.Rect {
	return geo.Rect{
		Min: geo.Point{Lon: d.f64("rect min lon"), Lat: d.f64("rect min lat")},
		Max: geo.Point{Lon: d.f64("rect max lon"), Lat: d.f64("rect max lat")},
	}
}
