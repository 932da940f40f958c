package wal

import (
	"encoding/binary"
	"hash/crc32"
)

// Frame layout:
//
//	[u32 length][u32 crc32c][u64 lsn][u8 op][body ...]
//
// length counts everything after the crc field (8 + 1 + len(body));
// crc32c (Castagnoli) covers the same bytes. A frame whose length
// field is implausible, whose bytes are short, or whose checksum
// mismatches is treated as the torn tail of the journal: the scan
// stops there and the valid prefix before it is kept.
const (
	frameHeaderSize = 4 + 4
	frameFixedSize  = 8 + 1 // lsn + op

	// MaxFrameBody bounds a single record body. The largest real
	// record is one inserted document (well under a megabyte); the cap
	// exists so a corrupt length field cannot make the scanner attempt
	// a giant read.
	MaxFrameBody = 16 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends the encoded frame for rec to buf.
func AppendFrame(buf []byte, rec Record) []byte {
	n := frameFixedSize + len(rec.Body)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	crcAt := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // crc placeholder
	payloadAt := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, rec.LSN)
	buf = append(buf, rec.Op)
	buf = append(buf, rec.Body...)
	crc := crc32.Checksum(buf[payloadAt:], crcTable)
	binary.LittleEndian.PutUint32(buf[crcAt:], crc)
	return buf
}

// FrameSize returns the encoded size of a record's frame.
func FrameSize(rec Record) int {
	return frameHeaderSize + frameFixedSize + len(rec.Body)
}

// decodeFrame decodes one frame at the head of data, returning the
// record and the frame's total encoded size. ok is false when the
// bytes do not form a complete, checksum-valid frame — the torn-tail
// condition.
func decodeFrame(data []byte) (rec Record, size int, ok bool) {
	if len(data) < frameHeaderSize+frameFixedSize {
		return rec, 0, false
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n < frameFixedSize || n > frameFixedSize+MaxFrameBody {
		return rec, 0, false
	}
	size = frameHeaderSize + n
	if len(data) < size {
		return rec, 0, false
	}
	crc := binary.LittleEndian.Uint32(data[4:])
	payload := data[frameHeaderSize:size]
	if crc32.Checksum(payload, crcTable) != crc {
		return rec, 0, false
	}
	rec.LSN = binary.LittleEndian.Uint64(payload)
	rec.Op = payload[8]
	rec.Body = payload[frameFixedSize:]
	return rec, size, true
}

// ScanInfo describes the outcome of scanning one journal file.
type ScanInfo struct {
	// ValidSize is the byte length of the checksum-valid frame prefix.
	ValidSize int64
	// Truncated reports whether bytes beyond ValidSize existed — a
	// torn or corrupt tail.
	Truncated bool
}

// ScanJournal reads the journal file and returns every record of its
// valid prefix. A missing file scans as empty. The scan stops at the
// first torn or corrupt frame; Info.Truncated reports whether such a
// tail was present.
func ScanJournal(fs FS, name string) ([]Record, ScanInfo, error) {
	data, err := fs.ReadFile(name)
	if err != nil {
		// A journal that was never created is an empty journal.
		return nil, ScanInfo{}, nil
	}
	var recs []Record
	off := 0
	for off < len(data) {
		rec, size, ok := decodeFrame(data[off:])
		if !ok {
			return recs, ScanInfo{ValidSize: int64(off), Truncated: true}, nil
		}
		// Copy the body out of the file buffer so records stay valid
		// independently of data's lifetime.
		rec.Body = append([]byte(nil), rec.Body...)
		recs = append(recs, rec)
		off += size
	}
	return recs, ScanInfo{ValidSize: int64(off)}, nil
}
