package sfc

import (
	"cmp"
	"fmt"
	"slices"
)

// Range is an inclusive interval [Lo, Hi] of curve positions.
type Range struct {
	Lo uint64
	Hi uint64
}

// Len returns the number of positions in the range.
func (r Range) Len() uint64 { return r.Hi - r.Lo + 1 }

// Contains reports whether d lies in the range.
func (r Range) Contains(d uint64) bool { return d >= r.Lo && d <= r.Hi }

// String renders the range as "[lo,hi]".
func (r Range) String() string { return fmt.Sprintf("[%d,%d]", r.Lo, r.Hi) }

// MergeRanges sorts the ranges and merges overlapping or adjacent
// ones, returning a minimal sorted list. The input slice may be
// reordered.
func MergeRanges(rs []Range) []Range {
	if len(rs) <= 1 {
		return rs
	}
	slices.SortFunc(rs, func(a, b Range) int { return cmp.Compare(a.Lo, b.Lo) })
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.Lo <= last.Hi+1 && last.Hi+1 != 0 { // adjacent or overlapping
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// CoalesceRanges reduces the list to at most maxRanges entries by
// repeatedly merging the pair of neighbouring ranges with the smallest
// gap. The result still covers every input position (it over-covers
// the gaps that were merged away). This bounds the size of the query
// filter the Hilbert approach generates — the trade-off discussed in
// the paper between query descriptor size and false positives.
func CoalesceRanges(rs []Range, maxRanges int) []Range {
	if maxRanges < 1 || len(rs) <= maxRanges {
		return rs
	}
	// Gaps between consecutive ranges; merge smallest-first. A simple
	// selection loop is fine: covers are at most tens of thousands of
	// ranges and this runs once per query.
	type gap struct {
		idx  int // gap between rs[idx] and rs[idx+1]
		size uint64
	}
	gaps := make([]gap, 0, len(rs)-1)
	for i := 0; i+1 < len(rs); i++ {
		gaps = append(gaps, gap{idx: i, size: rs[i+1].Lo - rs[i].Hi - 1})
	}
	slices.SortFunc(gaps, func(a, b gap) int { return cmp.Compare(a.size, b.size) })
	// Mark which gaps get merged (the len(rs)-maxRanges smallest).
	merged := make([]bool, len(rs))
	for _, g := range gaps[:len(rs)-maxRanges] {
		merged[g.idx] = true
	}
	out := make([]Range, 0, maxRanges)
	cur := rs[0]
	for i := 0; i+1 < len(rs); i++ {
		if merged[i] {
			cur.Hi = rs[i+1].Hi
			continue
		}
		out = append(out, cur)
		cur = rs[i+1]
	}
	return append(out, cur)
}

// RangeStats summarises a cover for diagnostics and benchmarks.
type RangeStats struct {
	Ranges    int    // number of ranges
	Singles   int    // ranges covering exactly one cell
	Positions uint64 // total covered curve positions
}

// StatsOf computes summary statistics of a cover.
func StatsOf(rs []Range) RangeStats {
	var st RangeStats
	st.Ranges = len(rs)
	for _, r := range rs {
		if r.Lo == r.Hi {
			st.Singles++
		}
		st.Positions += r.Len()
	}
	return st
}
