package wire

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/sfc"
	"repro/internal/sthash"
)

// Spec codec: a query travels as the spec's fixed fields — the
// rectangle, the window, the key kind and the cover's ranges — so the
// shard server plans and matches exactly what the router would have
// handed to a LocalConn.

// appendSpec encodes a spec: the rectangle as four float64s, the
// window as two int64 nanosecond times, the key kind, and the cover.
// Hilbert ranges go as delta varints — each range's gap above the
// previous one, then its span — and ST-Hash ranges as string pairs.
// The encoding is total; the decoder refuses what a spec cannot hold.
func appendSpec(buf []byte, s *query.Spec) []byte {
	buf = appendF64(buf, s.Rect.Min.Lon)
	buf = appendF64(buf, s.Rect.Min.Lat)
	buf = appendF64(buf, s.Rect.Max.Lon)
	buf = appendF64(buf, s.Rect.Max.Lat)
	buf = appendI64(buf, s.From.UnixNano())
	buf = appendI64(buf, s.To.UnixNano())
	buf = appendU8(buf, uint8(s.Key))
	switch s.Key {
	case query.HilbertKey:
		buf = appendU32(buf, uint32(len(s.Cells)))
		next := uint64(0)
		for _, r := range s.Cells {
			buf = binary.AppendUvarint(binary.AppendUvarint(buf, r.Lo-next), r.Hi-r.Lo)
			next = r.Hi + 1
		}
	case query.STHashKey:
		buf = appendU32(buf, uint32(len(s.Strings)))
		for _, r := range s.Strings {
			buf = appendString(appendString(buf, r.Lo), r.Hi)
		}
	}
	return buf
}

// decodeSpec decodes a spec. It refuses an unknown key kind, and
// ranges that are not ascending and disjoint — or, on the Hilbert key,
// that reach 2^53, past which index keys do not hold a cell exactly.
func decodeSpec(d *dec) *query.Spec {
	s := &query.Spec{Rect: geo.Rect{
		Min: geo.Point{Lon: d.f64("rect min lon"), Lat: d.f64("rect min lat")},
		Max: geo.Point{Lon: d.f64("rect max lon"), Lat: d.f64("rect max lat")},
	}}
	s.From = time.Unix(0, d.i64("from")).UTC()
	s.To = time.Unix(0, d.i64("to")).UTC()
	switch s.Key = query.KeyKind(d.u8("key kind")); s.Key {
	case query.NoKey:
	case query.HilbertKey:
		// An empty cover decodes to nil ranges, as the covers give it.
		n := d.count(2, "cover ranges")
		if n > 0 {
			s.Cells = make([]sfc.Range, 0, n)
		}
		next := uint64(0)
		for i := 0; i < n && d.err == nil; i++ {
			lo := next + d.uvarint("range gap")
			hi := lo + d.uvarint("range span")
			if lo < next || hi < lo || hi >= 1<<53 {
				d.fail("cover range bounds")
				return nil
			}
			s.Cells = append(s.Cells, sfc.Range{Lo: lo, Hi: hi})
			next = hi + 1
		}
	case query.STHashKey:
		n := d.count(8, "cover ranges")
		if n > 0 {
			s.Strings = make([]sthash.Range, 0, n)
		}
		for i := 0; i < n && d.err == nil; i++ {
			r := sthash.Range{Lo: d.string("range lo"), Hi: d.string("range hi")}
			if r.Hi < r.Lo || i > 0 && r.Lo <= s.Strings[i-1].Hi {
				d.fail("cover range order")
				return nil
			}
			s.Strings = append(s.Strings, r)
		}
	default:
		d.fail(fmt.Sprintf("key kind %d", s.Key))
		return nil
	}
	return s
}
