package btree

import (
	"bytes"
	"sort"
	"testing"
)

// fuzzKey maps an op byte to a small, collision-rich keyspace of
// variable-length keys (so the key arena sees mixed lengths and the
// tree sees plenty of overwrites, deletes of present keys, and
// separator churn at degree 2).
func fuzzKey(b byte) []byte {
	k := []byte{'k', b >> 5}
	if b&1 == 0 {
		k = append(k, b)
	}
	return k
}

// FuzzTreeOps drives the arena tree and a sorted-map oracle through
// the same operation stream and fails on any divergence: Set/Delete
// return values, Get results, DeleteBelow counts, full in-order
// contents, Scan-vs-Iterator agreement (keys, values, and examined
// counts), and the structural check() invariants. Each input byte
// pair is one operation.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 10, 0, 20, 2, 10, 4, 15, 5, 0})
	f.Add([]byte{0, 1, 0, 3, 0, 5, 0, 7, 2, 3, 3, 5, 4, 6, 5, 0})
	seed := make([]byte, 0, 512)
	for i := 0; i < 128; i++ {
		seed = append(seed, byte(i*7)%6, byte(i*13))
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, ops []byte) {
		tr := NewTree(2) // minimum degree: maximum structural churn
		oracle := map[string]uint64{}
		var serial uint64
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%6, ops[i+1]
			k := fuzzKey(arg)
			switch op {
			case 0, 1:
				serial++
				_, existed := oracle[string(k)]
				if inserted := tr.Set(k, serial); inserted == existed {
					t.Fatalf("op %d: Set(%x) inserted=%v, oracle existed=%v", i, k, inserted, existed)
				}
				oracle[string(k)] = serial
			case 2:
				_, existed := oracle[string(k)]
				if deleted := tr.Delete(k); deleted != existed {
					t.Fatalf("op %d: Delete(%x) = %v, oracle %v", i, k, deleted, existed)
				}
				delete(oracle, string(k))
			case 3:
				want, wantOK := oracle[string(k)]
				if got, ok := tr.Get(k); ok != wantOK || got != want {
					t.Fatalf("op %d: Get(%x) = %d,%v want %d,%v", i, k, got, ok, want, wantOK)
				}
			case 4:
				want := 0
				for ok := range oracle {
					if ok < string(k) {
						delete(oracle, ok)
						want++
					}
				}
				if got := tr.DeleteBelow(k); got != want {
					t.Fatalf("op %d: DeleteBelow(%x) = %d, want %d", i, k, got, want)
				}
			case 5:
				compareWithOracle(t, tr, oracle)
			}
			if tr.Len() != len(oracle) {
				t.Fatalf("op %d: Len = %d, oracle %d", i, tr.Len(), len(oracle))
			}
		}
		compareWithOracle(t, tr, oracle)
	})
}

// FuzzIteratorSeek holds the iterator — Next interleaved with forward
// Seeks, the executor's skip-scan pattern — to a sorted-slice oracle:
// every Next must yield the oracle's next key and value (or stop where
// the oracle stops), and Examined must count exactly the keys Next
// inspected, the terminating out-of-bounds key included and seeks
// excluded. build fills the tree (every fifth byte deletes); script
// picks the degree (so leaves hold from 3 to 15 entries and a target
// may lie in the cursor's leaf, the next one, or many leaves ahead),
// the bounds, and then one Next or one Seek per step. Targets sort
// after everything already returned — that is Seek's contract — and
// include keys past the end of the tree; seeking an iterator that has
// already hit its bound or the end of the tree repositions it like any
// other.
func FuzzIteratorSeek(f *testing.F) {
	dense := make([]byte, 256)
	for i := range dense {
		dense[i] = byte(i * 37)
	}
	walk := []byte{0, 0, 0} // degree 2, unbounded
	skip := []byte{6, 0, 0} // degree 8
	for i := 0; i < 200; i++ {
		walk = append(walk, byte(i%3), byte(i*5)) // Next, Next, Seek
		skip = append(skip, 1, 2, byte(i*3), 3, byte(i*3+1))
	}
	f.Add(dense, walk)
	f.Add(dense, skip)
	f.Add(dense[:40], []byte{0, 0x45, 0x93, 0, 0, 2, 15, 0, 2, 200, 0, 0})
	f.Add([]byte{}, []byte{1, 0, 0, 0, 2, 9, 0})

	f.Fuzz(func(t *testing.T, build, script []byte) {
		if len(script) < 3 {
			return
		}
		tr := NewTree(2 + int(script[0]%7))
		oracle := map[string]uint64{}
		for i, b := range build {
			if k := fuzzKey(b); i%5 == 4 {
				tr.Delete(k)
				delete(oracle, string(k))
			} else {
				tr.Set(k, uint64(i))
				oracle[string(k)] = uint64(i)
			}
		}
		keys := make([]string, 0, len(oracle))
		for k := range oracle {
			keys = append(keys, k)
		}
		sort.Strings(keys)

		// Bounds: low two bits 0 = unbounded, 1 = inclusive, else exclusive.
		bound := func(b byte) Bound {
			switch b & 3 {
			case 0:
				return Unbounded()
			case 1:
				return Include(fuzzKey(b))
			}
			return Exclude(fuzzKey(b))
		}
		lo, hi := bound(script[1]), bound(script[2])
		var it Iterator
		it.Init(tr, lo, hi)

		// The oracle cursor: pos indexes keys; dead is "Next said no".
		pos := sort.SearchStrings(keys, string(lo.Key))
		if !lo.open() && !lo.Inclusive && pos < len(keys) && keys[pos] == string(lo.Key) {
			pos++
		}
		dead, examined := false, 0
		floor := string(lo.Key) // seek targets must sort after this: the cursor never moves back
		for i := 3; i < len(script); i++ {
			if script[i]&3 >= 2 && i+1 < len(script) {
				i++
				target := fuzzKey(script[i])
				if script[i]%16 == 15 {
					target = []byte{0xff} // past every key
				}
				if string(target) <= floor {
					continue // a backward seek: not supported
				}
				it.Seek(target)
				pos, dead = sort.SearchStrings(keys, string(target)), false
				floor = string(target)
				continue
			}
			want := !dead && pos < len(keys)
			if want {
				k := keys[pos]
				pos++
				examined++
				if !hi.open() && (k > string(hi.Key) || k == string(hi.Key) && !hi.Inclusive) {
					want, dead = false, true
				}
			}
			if got := it.Next(); got != want {
				t.Fatalf("step %d: Next = %v, oracle %v", i, got, want)
			}
			if want {
				k := keys[pos-1]
				if string(it.Key()) != k || it.Value() != oracle[k] {
					t.Fatalf("step %d: at %x=%d, oracle %x=%d", i, it.Key(), it.Value(), k, oracle[k])
				}
				floor = k
			}
			if it.Examined() != examined {
				t.Fatalf("step %d: Examined = %d, oracle %d", i, it.Examined(), examined)
			}
		}
	})
}

func compareWithOracle(t *testing.T, tr *Tree, oracle map[string]uint64) {
	t.Helper()
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
	want := make([]string, 0, len(oracle))
	for k := range oracle {
		want = append(want, k)
	}
	sort.Strings(want)
	i := 0
	scanExamined := tr.Scan(Unbounded(), Unbounded(), func(k []byte, v uint64) bool {
		if i >= len(want) || string(k) != want[i] || v != oracle[want[i]] {
			t.Fatalf("scan entry %d diverged from oracle", i)
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("scan yielded %d of %d oracle keys", i, len(want))
	}
	// The iterator must agree with Scan byte-for-byte, including the
	// examined count.
	var it Iterator
	it.Init(tr, Unbounded(), Unbounded())
	for j := 0; it.Next(); j++ {
		if j >= len(want) || string(it.Key()) != want[j] || it.Value() != oracle[want[j]] {
			t.Fatalf("iterator entry %d diverged from oracle", j)
		}
	}
	if it.Examined() != scanExamined {
		t.Fatalf("iterator examined %d keys, Scan %d", it.Examined(), scanExamined)
	}
	// Min/Max agree with the oracle extremes.
	if len(want) == 0 {
		if tr.Min() != nil || tr.Max() != nil {
			t.Fatal("Min/Max non-nil on empty tree")
		}
	} else if string(tr.Min()) != want[0] || string(tr.Max()) != want[len(want)-1] {
		t.Fatal("Min/Max diverged from oracle")
	}
}

// TestKeyArenaCompaction churns a tree with large keys until dead
// bytes force compactions, then verifies contents survived and the
// arena stays bounded: the double-buffer swap must hold the key arena
// near its live working set instead of growing with churn.
func TestKeyArenaCompaction(t *testing.T) {
	tr := NewTree(4)
	const live = 400
	pad := bytes.Repeat([]byte{'p'}, 120)
	mk := func(i int) []byte {
		return append(key(i), pad...) // 128-byte keys
	}
	for i := 0; i < live; i++ {
		tr.Set(mk(i), uint64(i))
	}
	// Each cycle rewrites every key once: ~51 KiB of churn per cycle
	// against a ~50 KiB live set, forcing repeated compactions.
	for cycle := 0; cycle < 40; cycle++ {
		for i := 0; i < live; i++ {
			tr.Delete(mk(i))
			tr.Set(mk(i), uint64(cycle))
		}
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	liveBytes := live * 128
	if st.KeyArenaBytes > 4*liveBytes {
		t.Fatalf("key arena at %d bytes for a %d-byte live set: compaction not keeping up",
			st.KeyArenaBytes, liveBytes)
	}
	for i := 0; i < live; i++ {
		if v, ok := tr.Get(mk(i)); !ok || v != 39 {
			t.Fatalf("Get(%d) after churn = %d, %v", i, v, ok)
		}
	}
	if tr.Len() != live {
		t.Fatalf("Len after churn = %d", tr.Len())
	}
}

// TestWarmMutationNoAlloc pins the steady-state mutation path at zero
// allocations: once the page arena, free list, key arena, and its
// compaction spare have grown to the working-set peak, Get, Set
// (fresh and overwrite), Delete, and delete+reinsert cycles must not
// allocate. This is what keeps index maintenance off the garbage
// collector entirely.
func TestWarmMutationNoAlloc(t *testing.T) {
	tr := NewTree(0)
	const n = 20000
	for i := 0; i < n; i++ {
		tr.Set(key(i), uint64(i))
	}
	// Warm the churn path until both key-arena buffers have been
	// through compaction at their peak size.
	for i := 0; i < 8*n; i++ {
		k := key(i % n)
		tr.Delete(k)
		tr.Set(k, uint64(i))
	}

	if a := testing.AllocsPerRun(200, func() {
		if _, ok := tr.Get(key(1234)); !ok {
			t.Fatal("warm Get missed")
		}
	}); a != 0 {
		t.Fatalf("warm Get allocates %.1f/op", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		tr.Set(key(1234), 7)
	}); a != 0 {
		t.Fatalf("warm Set overwrite allocates %.1f/op", a)
	}
	i := 0
	if a := testing.AllocsPerRun(2000, func() {
		k := key(i % n)
		tr.Delete(k)
		tr.Set(k, uint64(i))
		i++
	}); a != 0 {
		t.Fatalf("warm delete+insert cycle allocates %.1f/op", a)
	}
}
