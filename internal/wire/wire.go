// Package wire is the cluster's binary network protocol: the framing,
// message and filter codecs spoken between the query router (or a
// client CLI) and the shard server processes.
//
// Frame layout (everything little-endian):
//
//	[u32 length][u32 crc32c][u8 op][body ...]
//
// length counts everything after the crc field (1 + len(body));
// crc32c (Castagnoli) covers the same bytes — the WAL's framing,
// reused on the wire so a torn TCP stream and a torn journal fail the
// same way. A frame whose length field is implausible or whose
// checksum mismatches is a protocol error: the connection is poisoned
// and torn down, never resynchronized mid-stream.
//
// Every connection opens with a handshake: the client sends Hello
// (protocol version), the server answers HelloReply (its version, the
// cluster content fingerprint, and the shard ids it serves). A
// version mismatch or a fingerprint mismatch is detected before any
// query flows.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ProtocolVersion is bumped on any incompatible codec change; the
// handshake rejects a peer speaking a different version.
//
// Version 2 extended ErrorReply with an error code + retry-after hint
// and StatsReply with the server health state and admission counters.
//
// Version 3 added the write path (OpInsert/OpInsertReply with
// idempotent batch IDs) and the shared-secret HMAC challenge in the
// handshake (nonce fields in Hello/HelloReply, OpAuth/OpAuthReply,
// ErrCodeUnauthorized).
//
// Version 4 added aggregation pushdown to the router-facing op (the
// aggregate fields appended to STQuery and to its reply).
//
// Version 5 made the shard-facing read one op: Query carries the
// aggregate spec among its pushed-down options and QueryReply carries
// the partial aggregate, replacing version 4's separate aggregate
// frame pair (18 op codes, down from 20).
//
// Version 6 retired server-side cursors: a shard streams its answer as
// consecutive QueryReply frames in one exchange, whose leading More
// flag replaced the cursor id. The three cursor op codes, 5–7, stay
// reserved, so every other op keeps its number and a version-5 peer
// still reads the handshake refusal as OpError.
//
// Version 7 made the router hop answer in the shard hop's format: a
// router streams its merged answer as QueryReply frames, whose first
// carries the routed observables in an optional section (one zero byte
// on a shard's reply). The single-frame router reply's op code, 11,
// stays reserved.
//
// Version 8 added the KeyRanges filter node (tag 7): the Hilbert
// approaches' cell constraint travels as its ranges, in delta varints,
// instead of an $or of comparison pairs and an $in.
//
// Version 9 added an ordered walk's bound to Query, the documents a
// shard refined to QueryReply, and the shards a limited walk never
// asked to the routed section.
//
// Version 10 replaced Query's filter tree with the query spec's fixed
// fields: the rectangle, the window, the key kind and the cover's
// ranges (Hilbert ranges still as delta varints).
const ProtocolVersion = 10

// MaxFrameBody bounds a single frame body, so that a corrupt or
// hostile length field cannot make a reader attempt a giant
// allocation. A server cuts an answer into frames by document count
// and by bytes: a frame takes no document that would carry it past
// this bound, and an answer holding a document no frame can carry is
// refused with an error before its first frame.
const MaxFrameBody = 32 << 20

// frameHeaderSize is the length + crc prefix.
const frameHeaderSize = 4 + 4

// Operation codes.
const (
	OpHello byte = iota + 1
	OpHelloReply
	OpQuery
	OpQueryReply
	_ // 5–7: the cursor ops, retired in version 6
	_
	_
	OpStats
	OpStatsReply
	OpSTQuery
	_ // 11: the router's single-frame reply, retired in version 7
	OpPing
	OpPong
	OpError
	OpInsert
	OpInsertReply
	OpAuth
	OpAuthReply
)

// ErrorReply codes: the machine-readable classification riding next
// to the transient bit, so clients can react to *why* a request was
// refused rather than pattern-matching the message.
const (
	// ErrCodeGeneric is an ordinary execution failure.
	ErrCodeGeneric uint8 = iota
	// ErrCodeOverload means the server shed the request under
	// admission control (in-flight cap, heap watermark, or server-side
	// query deadline); the reply carries a retry-after hint the client
	// should honour before the next attempt.
	ErrCodeOverload
	// ErrCodeDraining means the server is shutting down gracefully:
	// in-flight requests finish, new ones are refused.
	ErrCodeDraining
	// ErrCodeBadFrame is the server's goodbye after the client sent an
	// unreadable frame (oversized length or checksum mismatch); the
	// connection closes right after this reply.
	ErrCodeBadFrame
	// ErrCodeUnauthorized refuses a connection that has not completed
	// the shared-secret HMAC challenge (wrong or missing proof); the
	// server sends it before any op is served and closes the
	// connection.
	ErrCodeUnauthorized
)

// Server health states carried in StatsReply.State.
const (
	StateStarting uint8 = iota
	StateReady
	StateDraining
)

// StateName renders a health state for logs and CLIs.
func StateName(s uint8) string {
	switch s {
	case StateStarting:
		return "starting"
	case StateReady:
		return "ready"
	case StateDraining:
		return "draining"
	default:
		return fmt.Sprintf("state(%d)", s)
	}
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrBadFrame marks a framing violation (implausible length, short
// read, checksum mismatch): the stream cannot be trusted past it.
var ErrBadFrame = errors.New("wire: bad frame")

// AppendFrame appends the encoded frame for (op, body) to buf.
func AppendFrame(buf []byte, op byte, body []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(1+len(body)))
	crcAt := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // crc placeholder
	payloadAt := len(buf)
	buf = append(buf, op)
	buf = append(buf, body...)
	binary.LittleEndian.PutUint32(buf[crcAt:], crc32.Checksum(buf[payloadAt:], crcTable))
	return buf
}

// DecodeFrame decodes one frame at the head of data, returning the op,
// a view of the body, and the frame's total encoded size. ok is false
// when the bytes do not form a complete checksum-valid frame.
func DecodeFrame(data []byte) (op byte, body []byte, size int, ok bool) {
	if len(data) < frameHeaderSize+1 {
		return 0, nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n < 1 || n > 1+MaxFrameBody {
		return 0, nil, 0, false
	}
	size = frameHeaderSize + n
	if len(data) < size {
		return 0, nil, 0, false
	}
	crc := binary.LittleEndian.Uint32(data[4:])
	payload := data[frameHeaderSize:size]
	if crc32.Checksum(payload, crcTable) != crc {
		return 0, nil, 0, false
	}
	return payload[0], payload[1:], size, true
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, op byte, body []byte) error {
	var hdr [frameHeaderSize + 1]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(1+len(body)))
	hdr[8] = op
	crc := crc32.Checksum(hdr[8:], crcTable)
	crc = crc32.Update(crc, crcTable, body)
	binary.LittleEndian.PutUint32(hdr[4:], crc)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(body) > 0 {
		if _, err := w.Write(body); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one frame from r. It blocks until a full frame (or
// an error) arrives; a framing violation returns ErrBadFrame and the
// caller must abandon the connection.
func ReadFrame(r io.Reader) (op byte, body []byte, err error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n < 1 || n > 1+MaxFrameBody {
		return 0, nil, fmt.Errorf("%w: length %d", ErrBadFrame, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		// A short payload after a valid header is a torn stream. The
		// underlying EOF stays wrapped so transports can classify the
		// tear as a connection loss (retryable) rather than a protocol
		// violation.
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, fmt.Errorf("%w: torn frame: %w", ErrBadFrame, err)
		}
		return 0, nil, err
	}
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if crc32.Checksum(payload, crcTable) != crc {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrBadFrame)
	}
	return payload[0], payload[1:], nil
}
