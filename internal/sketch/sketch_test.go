package sketch

import (
	"math/rand"
	"testing"
)

// TestNoFalseNegatives: every added cell must answer MayContain true,
// whatever interleaving of adds and removes ran before.
func TestNoFalseNegatives(t *testing.T) {
	s := New(256)
	live := map[uint64]int{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20_000; i++ {
		cell := uint64(rng.Intn(512))
		if rng.Intn(3) == 0 && live[cell] > 0 {
			s.Remove(cell)
			live[cell]--
		} else {
			s.Add(cell)
			live[cell]++
		}
	}
	for cell, n := range live {
		if n > 0 && !s.MayContain(cell) {
			t.Fatalf("cell %d has %d live docs but MayContain says empty", cell, n)
		}
	}
}

// TestProveEmpty: a summary over a narrow cell band must prove distant
// bands empty (the pruning property), within the expected FP rate.
func TestProveEmpty(t *testing.T) {
	s := New(256)
	for c := uint64(0); c < 100; c++ {
		s.Add(c)
	}
	fps := 0
	for c := uint64(1_000_000); c < 1_001_000; c++ {
		if s.MayContain(c) {
			fps++
		}
	}
	// 3 hashes over 8 counters/cell gives ~2.7% FPs; 10% is a generous
	// determinism-safe ceiling.
	if fps > 100 {
		t.Fatalf("%d/1000 false positives, summary not selective", fps)
	}
	if s.MayContainRange(2_000_000, 2_000_050, 1024) {
		// A full range of provably-empty cells must prune. This can
		// only fail if all 51 cells are FPs — effectively impossible.
		t.Fatalf("empty range not proven empty")
	}
	if !s.MayContainRange(50, 60, 1024) {
		t.Fatalf("live range wrongly proven empty")
	}
	if s.MayContainRange(10, 5, 1024) {
		t.Fatalf("inverted range should be empty")
	}
	if !s.MayContainRange(5_000_000, 6_000_000, 1024) {
		t.Fatalf("over-wide range must answer true (cannot prove empty)")
	}
}

// TestSaturationStaysConservative: pushing a slot past 255 must never
// produce a false negative afterwards, even when every add is removed
// again.
func TestSaturationStaysConservative(t *testing.T) {
	s := New(32)
	const cell = uint64(42)
	for i := 0; i < 300; i++ {
		s.Add(cell)
	}
	for i := 0; i < 300; i++ {
		s.Remove(cell)
	}
	if !s.MayContain(cell) {
		// Sticky saturation means the slot can never be decremented:
		// the cell stays "maybe present" forever, which is the safe
		// direction.
		t.Fatalf("saturated slot decremented to a false negative")
	}
}
