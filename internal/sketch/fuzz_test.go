package sketch

import "testing"

// FuzzSketch is the differential fuzz of the summary against an exact
// multiset: arbitrary add/remove streams must never produce a false
// negative (MayContain false for a live cell). That is the property
// shard pruning is built on — a violation here would silently drop
// query results.
func FuzzSketch(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 1, 0, 1})
	f.Add([]byte{0, 200, 0, 200, 1, 200, 0, 200})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New(64)
		exact := map[uint64]int64{}
		for i := 0; i+1 < len(data); i += 2 {
			// Each op pair: (verb, cell). Cells are squeezed into a
			// small space so adds and removes collide often.
			cell := uint64(data[i+1]) % 97
			if data[i]%2 == 1 && exact[cell] > 0 {
				s.Remove(cell)
				exact[cell]--
			} else {
				s.Add(cell)
				exact[cell]++
			}
		}
		for cell, n := range exact {
			if n > 0 && !s.MayContain(cell) {
				t.Fatalf("false negative: cell %d live=%d", cell, n)
			}
		}
	})
}
