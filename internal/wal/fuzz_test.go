package wal

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// memFS is a minimal in-memory FS for the recovery fuzzer — fast
// enough to run thousands of mutated journals per second.
type memFS struct {
	files map[string][]byte
}

func newMemFS() *memFS { return &memFS{files: map[string][]byte{}} }

type memFile struct {
	fs   *memFS
	name string
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.files[f.name] = append(f.fs.files[f.name], p...)
	return len(p), nil
}
func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

func (m *memFS) MkdirAll(string) error { return nil }
func (m *memFS) Create(name string) (File, error) {
	m.files[name] = nil
	return &memFile{fs: m, name: name}, nil
}
func (m *memFS) Append(name string) (File, error) {
	if _, ok := m.files[name]; !ok {
		m.files[name] = nil
	}
	return &memFile{fs: m, name: name}, nil
}
func (m *memFS) ReadFile(name string) ([]byte, error) {
	data, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("memfs: %s not found", name)
	}
	return append([]byte(nil), data...), nil
}
func (m *memFS) WriteFile(name string, data []byte) error {
	m.files[name] = append([]byte(nil), data...)
	return nil
}
func (m *memFS) Truncate(name string, size int64) error {
	data, ok := m.files[name]
	if !ok || int64(len(data)) < size {
		return fmt.Errorf("memfs: truncate %s", name)
	}
	m.files[name] = data[:size]
	return nil
}
func (m *memFS) Rename(oldname, newname string) error {
	data, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("memfs: rename %s", oldname)
	}
	m.files[newname] = data
	delete(m.files, oldname)
	return nil
}
func (m *memFS) Remove(name string) error { delete(m.files, name); return nil }
func (m *memFS) List(string) ([]string, error) {
	var names []string
	for n := range m.files {
		names = append(names, n)
	}
	slices.Sort(names)
	return names, nil
}
func (m *memFS) Size(name string) (int64, error) {
	data, ok := m.files[name]
	if !ok {
		return 0, fmt.Errorf("memfs: size %s", name)
	}
	return int64(len(data)), nil
}
func (m *memFS) SyncDir(string) error { return nil }

// FuzzFrameRecover feeds arbitrary bytes to the journal scanner and
// the full recovery path as a journal file's contents. Recovery must
// never panic, and it must never replay a frame whose checksum does
// not hold: every record the scan returns must re-encode to exactly
// the bytes of the accepted prefix, and the bytes beyond the prefix
// are reported truncated.
func FuzzFrameRecover(f *testing.F) {
	f.Add([]byte{})
	valid := AppendFrame(nil, Record{LSN: 1, Op: 6, Body: []byte("insert body")})
	valid = AppendFrame(valid, Record{LSN: 2, Op: 7, Body: []byte{0x01, 0x02, 0x03}})
	valid = AppendFrame(valid, Record{LSN: 3, Op: 5, Body: nil})
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0x40 // bit flip inside the first frame's payload
	f.Add(flipped)
	skip := append([]byte(nil), valid...)
	copy(skip[8:], AppendFrame(nil, Record{LSN: 9, Op: 6})) // LSN gap mid-file
	f.Add(skip)

	f.Fuzz(func(t *testing.T, data []byte) {
		fs := newMemFS()
		if err := fs.WriteFile("journal.wal", data); err != nil {
			t.Fatal(err)
		}
		recs, info, err := ScanJournal(fs, "journal.wal")
		if err != nil {
			t.Fatalf("ScanJournal: %v", err)
		}
		// Re-encoding the accepted records must reproduce the valid
		// prefix byte for byte — a record with a bad CRC or a torn
		// frame can never appear in recs.
		var enc []byte
		for _, r := range recs {
			enc = AppendFrame(enc, r)
		}
		if int64(len(enc)) != info.ValidSize || !bytes.Equal(enc, data[:info.ValidSize]) {
			t.Fatalf("accepted prefix does not re-encode: %d bytes vs ValidSize %d",
				len(enc), info.ValidSize)
		}
		if info.Truncated != (info.ValidSize < int64(len(data))) {
			t.Fatalf("Truncated=%v with ValidSize=%d of %d bytes",
				info.Truncated, info.ValidSize, len(data))
		}

		res, err := Recover(fs, "journal.wal")
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if err := res.TruncateTail(fs); err != nil {
			t.Fatalf("TruncateTail: %v", err)
		}
		// Recovery keeps a consecutive LSN run drawn from the scanned
		// prefix and truncates the file back to a clean scan.
		for i, r := range res.Records {
			if i > 0 && r.LSN != res.Records[i-1].LSN+1 {
				t.Fatalf("recovered LSNs not consecutive at %d", i)
			}
		}
		if res.NextLSN == 0 {
			t.Fatal("NextLSN must be at least 1")
		}
		if _, info2, err := ScanJournal(fs, "journal.wal"); err != nil || info2.Truncated {
			t.Fatalf("journal not clean after recovery: %v truncated=%v", err, info2.Truncated)
		}
	})
}
