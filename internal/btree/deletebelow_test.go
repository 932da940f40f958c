package btree

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// oracleDeleteBelow drops keys < threshold from a sorted key list,
// returning the survivors and the drop count.
func oracleDeleteBelow(keys [][]byte, threshold []byte) ([][]byte, int) {
	i := sort.Search(len(keys), func(i int) bool {
		return bytes.Compare(keys[i], threshold) >= 0
	})
	return keys[i:], i
}

func treeKeys(tr *Tree) [][]byte {
	var out [][]byte
	tr.Scan(Unbounded(), Unbounded(), func(k []byte, _ uint64) bool {
		out = append(out, bytes.Clone(k))
		return true
	})
	return out
}

func TestDeleteBelow(t *testing.T) {
	for _, degree := range []int{2, 3, 4, 8, 32} {
		rng := rand.New(rand.NewSource(int64(degree)))
		tr := NewTree(degree)
		var sorted [][]byte
		for i := 0; i < 3000; i++ {
			k := key(rng.Intn(1 << 20))
			if tr.Set(k, uint64(i)) {
				sorted = append(sorted, k)
			}
		}
		sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })

		// Repeated trims at advancing thresholds, including thresholds
		// below the minimum (no-op), between keys, exactly on keys, and
		// past the maximum (drop-all).
		for _, frac := range []float64{-0.1, 0.001, 0.25, 0.25, 0.6, 0.95, 1.1} {
			threshold := key(int(frac * (1 << 20)))
			wantKeys, wantRemoved := oracleDeleteBelow(sorted, threshold)
			removed := tr.DeleteBelow(threshold)
			if removed != wantRemoved {
				t.Fatalf("degree %d: DeleteBelow removed %d, want %d", degree, removed, wantRemoved)
			}
			if err := tr.check(); err != nil {
				t.Fatalf("degree %d after DeleteBelow: %v", degree, err)
			}
			got := treeKeys(tr)
			if len(got) != len(wantKeys) {
				t.Fatalf("degree %d: %d keys remain, want %d", degree, len(got), len(wantKeys))
			}
			for i := range got {
				if !bytes.Equal(got[i], wantKeys[i]) {
					t.Fatalf("degree %d: key %d = %x, want %x", degree, i, got[i], wantKeys[i])
				}
			}
			if tr.Len() != len(wantKeys) {
				t.Fatalf("degree %d: Len = %d, want %d", degree, tr.Len(), len(wantKeys))
			}
			sorted = wantKeys
		}
		if tr.Len() != 0 {
			t.Fatalf("degree %d: tree not empty after drop-all", degree)
		}
		// The emptied tree must be fully reusable.
		if !tr.Set(key(1), 1) || tr.Len() != 1 {
			t.Fatalf("degree %d: tree unusable after drop-all", degree)
		}
	}
}

func TestDeleteBelowInterleaved(t *testing.T) {
	// Trims interleaved with inserts and point deletes: the retention
	// pattern (append at the high end, trim at the low end) plus noise.
	rng := rand.New(rand.NewSource(99))
	tr := NewTree(3)
	oracle := map[string]uint64{}
	next := 0
	for round := 0; round < 60; round++ {
		for i := 0; i < 200; i++ {
			k := key(next)
			next++
			tr.Set(k, uint64(next))
			oracle[string(k)] = uint64(next)
		}
		for i := 0; i < 20; i++ {
			k := key(rng.Intn(next))
			if tr.Delete(k) != (func() bool { _, ok := oracle[string(k)]; return ok })() {
				t.Fatal("Delete diverged from oracle")
			}
			delete(oracle, string(k))
		}
		threshold := key(next - 150 - rng.Intn(100))
		want := 0
		for k := range oracle {
			if k < string(threshold) {
				delete(oracle, k)
				want++
			}
		}
		if got := tr.DeleteBelow(threshold); got != want {
			t.Fatalf("round %d: DeleteBelow = %d, want %d", round, got, want)
		}
		if err := tr.check(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if tr.Len() != len(oracle) {
			t.Fatalf("round %d: Len = %d, oracle %d", round, tr.Len(), len(oracle))
		}
	}
}

// TestDeleteBelowFreesBlind is the acceptance check for the fast
// drop: at the default degree, at least 90% of the pages a large trim
// frees must be freed blind — returned to the free list having read
// only the page count, with no entry decoded. Only the internal pages
// (a < 1/degree fraction) need visiting to enumerate children.
func TestDeleteBelowFreesBlind(t *testing.T) {
	tr := NewTree(0)
	const n = 200000
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		tr.Set(key(rng.Intn(1<<30)), uint64(i))
	}
	before := tr.Stats()
	removed := tr.DeleteBelow(key(1 << 29)) // drop ~half the tree
	if removed < n/3 {
		t.Fatalf("trim removed only %d of %d keys", removed, tr.Len()+removed)
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
	after := tr.Stats()
	blind := after.PagesFreedBlind - before.PagesFreedBlind
	visited := after.PagesFreedVisited - before.PagesFreedVisited
	if blind+visited == 0 {
		t.Fatal("trim freed no pages")
	}
	if ratio := float64(blind) / float64(blind+visited); ratio < 0.9 {
		t.Fatalf("only %.1f%% of freed pages were freed blind (%d blind, %d visited)",
			ratio*100, blind, visited)
	}
	if after.FreePages <= before.FreePages {
		t.Fatalf("free list did not grow: %d -> %d", before.FreePages, after.FreePages)
	}
	// Refilling must reuse the freed pages, not grow the arena.
	for i := 0; i < removed; i++ {
		tr.Set(key(rng.Intn(1<<29)), uint64(i))
	}
	if grown := tr.Stats().Pages - after.Pages; grown > after.Pages/10 {
		t.Fatalf("refill grew the arena by %d pages instead of reusing the free list", grown)
	}
}

func TestDeleteRange(t *testing.T) {
	build := func() (*Tree, [][]byte) {
		tr := NewTree(3)
		var keys [][]byte
		for i := 0; i < 500; i++ {
			k := key(i * 2) // even keys 0..998
			tr.Set(k, uint64(i))
			keys = append(keys, k)
		}
		return tr, keys
	}
	inRange := func(k []byte, lo, hi Bound) bool {
		if !lo.open() {
			c := bytes.Compare(k, lo.Key)
			if c < 0 || c == 0 && !lo.Inclusive {
				return false
			}
		}
		if !hi.open() {
			c := bytes.Compare(k, hi.Key)
			if c > 0 || c == 0 && !hi.Inclusive {
				return false
			}
		}
		return true
	}
	cases := []struct {
		name   string
		lo, hi Bound
	}{
		{"all", Unbounded(), Unbounded()},
		{"prefix-exclusive", Unbounded(), Exclude(key(300))},
		{"prefix-inclusive", Unbounded(), Include(key(300))},
		{"prefix-inclusive-between", Unbounded(), Include(key(301))},
		{"interior", Include(key(100)), Exclude(key(700))},
		{"interior-exclusive-lo", Exclude(key(100)), Include(key(700))},
		{"empty-range", Include(key(301)), Exclude(key(302))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, keys := build()
			want := 0
			var survivors [][]byte
			for _, k := range keys {
				if inRange(k, tc.lo, tc.hi) {
					want++
				} else {
					survivors = append(survivors, k)
				}
			}
			if got := tr.DeleteRange(tc.lo, tc.hi); got != want {
				t.Fatalf("DeleteRange = %d, want %d", got, want)
			}
			if err := tr.check(); err != nil {
				t.Fatal(err)
			}
			got := treeKeys(tr)
			if len(got) != len(survivors) {
				t.Fatalf("%d survivors, want %d", len(got), len(survivors))
			}
			for i := range got {
				if !bytes.Equal(got[i], survivors[i]) {
					t.Fatalf("survivor %d = %x, want %x", i, got[i], survivors[i])
				}
			}
		})
	}
}

func TestDeleteBelowNoops(t *testing.T) {
	tr := NewTree(4)
	if tr.DeleteBelow(key(10)) != 0 {
		t.Fatal("DeleteBelow on empty tree removed keys")
	}
	tr.Set(key(5), 5)
	if tr.DeleteBelow(nil) != 0 {
		t.Fatal("DeleteBelow(nil) removed keys")
	}
	if tr.DeleteBelow(key(5)) != 0 {
		t.Fatal("DeleteBelow at the minimum key removed it (threshold is exclusive)")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}
