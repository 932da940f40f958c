package btree

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

func benchKeys(n int, sequential bool) [][]byte {
	keys := make([][]byte, n)
	rng := rand.New(rand.NewSource(1))
	for i := range keys {
		var b [16]byte
		if sequential {
			binary.BigEndian.PutUint64(b[:8], uint64(i))
		} else {
			binary.BigEndian.PutUint64(b[:8], rng.Uint64())
		}
		binary.BigEndian.PutUint64(b[8:], uint64(i))
		keys[i] = b[:]
	}
	return keys
}

func BenchmarkSetSequential(b *testing.B) {
	keys := benchKeys(b.N, true)
	tr := NewTree(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Set(keys[i], uint64(i))
	}
}

func BenchmarkSetRandom(b *testing.B) {
	keys := benchKeys(b.N, false)
	tr := NewTree(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Set(keys[i], uint64(i))
	}
}

func BenchmarkGet(b *testing.B) {
	keys := benchKeys(100000, false)
	tr := NewTree(0)
	for i, k := range keys {
		tr.Set(k, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(keys[i%len(keys)])
	}
}

func BenchmarkScan1000(b *testing.B) {
	keys := benchKeys(100000, true)
	tr := NewTree(0)
	for i, k := range keys {
		tr.Set(k, uint64(i))
	}
	lo, hi := keys[40000], keys[41000]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		tr.Scan(Include(lo), Exclude(hi), func(_ []byte, _ uint64) bool {
			n++
			return true
		})
		if n != 1000 {
			b.Fatalf("scanned %d", n)
		}
	}
}

func BenchmarkSizeEstimate(b *testing.B) {
	keys := benchKeys(50000, true)
	tr := NewTree(0)
	for i, k := range keys {
		tr.Set(k, uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.SizeEstimate()
	}
}

// BenchmarkSkipScanSeek drives the iterator the way the executor's
// skip-scan does over a {cell, date} index: per distinct leading value
// one Seek forward to the sub-range, a few Nexts inside it, one Seek
// past the value. 2 000 cells of 50 keys; each iteration walks 100
// consecutive cells (200 seeks) and is reported per seek.
func BenchmarkSkipScanSeek(b *testing.B) {
	const cells, perCell, span = 2000, 50, 100
	tr := NewTree(0)
	mk := func(cell, sub int) []byte {
		var k [16]byte
		binary.BigEndian.PutUint64(k[:8], uint64(cell))
		binary.BigEndian.PutUint64(k[8:], uint64(sub))
		return k[:]
	}
	for c := 0; c < cells; c++ {
		for s := 0; s < perCell; s++ {
			tr.Set(mk(c, s), uint64(c*perCell+s))
		}
	}
	var it Iterator
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first := (i * span) % (cells - span)
		it.Init(tr, Include(mk(first, 0)), Exclude(mk(first+span, 0)))
		seeks, hits := 0, 0
		for it.Next() {
			cell := int(binary.BigEndian.Uint64(it.Key()[:8]))
			switch sub := binary.BigEndian.Uint64(it.Key()[8:]); {
			case sub < 20:
				it.Seek(mk(cell, 20))
				seeks++
			case sub >= 23:
				it.Seek(mk(cell+1, 0))
				seeks++
			default:
				hits++
			}
		}
		if seeks != 2*span || hits != 3*span {
			b.Fatalf("%d seeks, %d hits", seeks, hits)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(2*span), "ns/seek")
}
