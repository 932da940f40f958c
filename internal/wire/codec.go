package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrBadMessage marks a body that does not decode as its op's message:
// truncated fields, implausible counts, unknown tags. Unlike a framing
// violation it is attributable to one request — the connection itself
// stays in sync — but callers treat it as a hard (non-transient)
// failure.
var ErrBadMessage = errors.New("wire: bad message")

// Encoding primitives: fixed-width little-endian integers, u32
// length-prefixed byte strings, and u32 element counts validated
// against the remaining input so a corrupt count can never force an
// allocation larger than the message that carried it.

func appendU8(b []byte, v byte) []byte   { return append(b, v) }
func appendBool(b []byte, v bool) []byte { return append(b, b2u8(v)) }

func b2u8(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return appendU64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}

func appendBytes(b, v []byte) []byte {
	b = appendU32(b, uint32(len(v)))
	return append(b, v...)
}

func appendString(b []byte, v string) []byte {
	b = appendU32(b, uint32(len(v)))
	return append(b, v...)
}

// grow returns b with room for exactly n more bytes: the one
// allocation of an encoder that knows its size, at exactly that
// size. A buffer that already has the room is returned as it is.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	g := make([]byte, len(b), len(b)+n)
	copy(g, b)
	return g
}

// bytesListSize is the encoded size of the byte strings in l, each
// with its u32 length prefix.
func bytesListSize(l [][]byte) int {
	n := 4 * len(l)
	for _, v := range l {
		n += len(v)
	}
	return n
}

// dec is a bounds-checked cursor over one message body. The first
// failed read latches err; subsequent reads return zero values, so
// message decoders read every field unconditionally and check err
// once.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated %s at offset %d", ErrBadMessage, what, d.off)
	}
}

func (d *dec) remaining() int { return len(d.b) - d.off }

func (d *dec) take(n int, what string) []byte {
	if d.err != nil || n < 0 || d.remaining() < n {
		d.fail(what)
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

func (d *dec) u8(what string) byte {
	v := d.take(1, what)
	if v == nil {
		return 0
	}
	return v[0]
}

func (d *dec) bool(what string) bool { return d.u8(what) != 0 }

func (d *dec) u32(what string) uint32 {
	v := d.take(4, what)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}

func (d *dec) u64(what string) uint64 {
	v := d.take(8, what)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

func (d *dec) uvarint(what string) uint64 {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) i64(what string) int64   { return int64(d.u64(what)) }
func (d *dec) f64(what string) float64 { return math.Float64frombits(d.u64(what)) }

// A decoded byte string is either a view or a copy, by one rule:
//   - reply documents and sort keys are views (view): the reply is
//     read and passed up within one exchange, and ReadFrame gives every
//     frame a fresh buffer that nothing reuses, so a view costs no copy
//     and can go stale only if its holder writes into the frame;
//   - anything that is stored or outlives the exchange is a copy
//     (bytes): an inserted document, a handshake nonce or proof, an
//     aggregate's distinct value. A stored view would pin its whole
//     frame.

// bytes reads a u32-length-prefixed byte string as a copy.
func (d *dec) bytes(what string) []byte {
	n := int(d.u32(what))
	v := d.take(n, what)
	if v == nil {
		return nil
	}
	return append([]byte(nil), v...)
}

// view reads a u32-length-prefixed byte string as a view of the
// body. Its capacity is capped at its length, so appending to one view
// reallocates instead of overwriting the bytes after it.
func (d *dec) view(what string) []byte {
	n := int(d.u32(what))
	v := d.take(n, what)
	return v[:len(v):len(v)]
}

func (d *dec) string(what string) string {
	n := int(d.u32(what))
	v := d.take(n, what)
	if v == nil {
		return ""
	}
	return string(v)
}

// count reads a u32 element count and validates it against the bytes
// actually remaining (each element encodes to at least minSize bytes),
// so a hostile count cannot drive an over-allocation.
func (d *dec) count(minSize int, what string) int {
	n := int(d.u32(what))
	if d.err != nil {
		return 0
	}
	if n < 0 || minSize <= 0 || n > d.remaining()/minSize {
		d.fail(what + " count")
		return 0
	}
	return n
}

// finish returns the latched error, or an error if trailing bytes
// remain (a well-formed message is consumed exactly).
func (d *dec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, d.remaining())
	}
	return nil
}
