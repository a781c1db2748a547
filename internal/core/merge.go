package core

import (
	"fmt"
	"sort"

	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/order"
)

// Merge merges two sorted arrays stored in register reg on tracks tA and tB
// into sorted row-major order on the region dst (Lemma V.7). The tracks may
// lie inside dst (in-place merging) or adjacent to it; their total length
// must equal dst.Size(), and dst must be a square or a 2:1 rectangle with
// power-of-two sides.
//
// The recursion follows Section V-C: split A and B by the elements of rank
// n/4, n/2 and 3n/4 of A||B (SelectInSorted), reorganize the four subarray
// pairs into the four balanced subregions of dst, recurse, and finally
// permute the concatenated (sorted) subregions into dst's row-major order.
// Costs: O(n^{3/2}) energy, O(log^2 n) depth, O(sqrt n) distance.
//
// Layout note (DESIGN.md substitution 1): instead of the paper's square +
// "mirrored L" arrangement, each recursion node stores A_i || B_i
// contiguously in the row-major order of its subregion; the subregions come
// from grid.Rect.SplitFour, which preserves the balanced sizes and halving
// diameters that the paper's cost analysis relies on.
func Merge(m *machine.Machine, tA, tB grid.Track, reg machine.Reg, dst grid.Rect, less order.Less) {
	n := tA.Len() + tB.Len()
	if n != dst.Size() {
		panic(fmt.Sprintf("core: Merge size mismatch: %d + %d elements into %v", tA.Len(), tB.Len(), dst))
	}
	if n == 0 {
		return
	}
	mergeRec(m, tA, tB, reg, dst, less)
}

func mergeRec(m *machine.Machine, tA, tB grid.Track, reg machine.Reg, dst grid.Rect, less order.Less) {
	n := tA.Len() + tB.Len()
	out := grid.RowMajor(dst)

	// One-sided or tiny inputs: route straight into row-major order,
	// sorting tiny mixtures on the fly. Cost O(n * diam(dst)) — the same
	// O(n^{3/2}) term the recurrence charges per node.
	if tA.Len() == 0 || tB.Len() == 0 || n <= 16 {
		routeMergedSmall(m, tA, tB, reg, out, less)
		return
	}

	// Rank-split A and B at n/4, n/2, 3n/4 with one multiselection
	// (shared sample sort; per-rank work runs as independent branches).
	scratch := grid.Square(dst.Origin.Add(dst.H+1, 0), SelectScratchSide(n))
	q := n / 4
	splits := [5]SplitCounts{{0, 0}, {}, {}, {}, {tA.Len(), tB.Len()}}
	three := MultiSelect(m, tA, tB, reg, []int{q, 2 * q, 3 * q}, scratch, less)
	copy(splits[1:4], three)

	// Reorganize: subregion i receives A[aStart..aEnd) followed by
	// B[bStart..bEnd) in its own row-major order. Both arrays move in one
	// atomic parallel round — sources overlap destinations when merging in
	// place, so all reads and frees must precede all deliveries.
	children := dst.SplitFour()
	childTrack := [4]grid.Track{}
	childLenA := [4]int{}
	for i := 0; i < 4; i++ {
		childTrack[i] = grid.RowMajor(children[i])
		childLenA[i] = splits[i+1].KA - splits[i].KA
	}
	moveSplit(m, [2]grid.Track{tA, tB}, reg, func(arr, j int) machine.Coord {
		if arr == 0 {
			i := segmentOf(j, splits[:], true)
			return childTrack[i].At(j - splits[i].KA)
		}
		i := segmentOf(j, splits[:], false)
		return childTrack[i].At(childLenA[i] + j - splits[i].KB)
	})

	// Recurse on each subregion's (A_i, B_i) pair; the four children are
	// data-independent.
	var branches [4]func()
	for i := 0; i < 4; i++ {
		i := i
		branches[i] = func() {
			lenA := childLenA[i]
			lenB := splits[i+1].KB - splits[i].KB
			mergeRec(m,
				grid.Slice(childTrack[i], 0, lenA),
				grid.Slice(childTrack[i], lenA, lenB),
				reg, children[i], less)
		}
	}
	m.Independent(branches[:]...)

	// The concatenation of the children's row-major tracks is now fully
	// sorted; permute it into dst's row-major order (Figure 3d).
	sorted := grid.Concat(childTrack[0], childTrack[1], childTrack[2], childTrack[3])
	grid.Route(m, sorted, reg, out, reg, grid.Identity(n))
}

// segmentOf returns which of the four rank segments index j of array A
// (isA) or B falls into, given the cumulative split counts.
func segmentOf(j int, splits []SplitCounts, isA bool) int {
	for i := 3; i >= 0; i-- {
		lo := splits[i].KB
		if isA {
			lo = splits[i].KA
		}
		if j >= lo {
			return i
		}
	}
	panic("core: unreachable segment")
}

// moveSplit relocates every element of both tracks to the destination given
// by dest(array, index), in one parallel round, reading and freeing all
// sources before any delivery so that overlapping source/destination cells
// behave as a simultaneous permutation.
func moveSplit(m *machine.Machine, ts [2]grid.Track, reg machine.Reg, dest func(arr, j int) machine.Coord) {
	var vals [2][]machine.Value
	for a, t := range ts {
		vals[a] = make([]machine.Value, t.Len())
		for j := 0; j < t.Len(); j++ {
			vals[a][j] = m.Get(t.At(j), reg)
		}
	}
	for _, t := range ts {
		for j := 0; j < t.Len(); j++ {
			m.Del(t.At(j), reg)
		}
	}
	m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
		for a, t := range ts {
			for j := 0; j < t.Len(); j++ {
				send(t.At(j), dest(a, j), reg, vals[a][j])
			}
		}
	})
}

// routeMergedSmall merges at most 16 elements (or a single non-empty array)
// directly into out, computing destination ranks locally at a coordinator
// and routing each element with one message.
func routeMergedSmall(m *machine.Machine, tA, tB grid.Track, reg machine.Reg, out grid.Track, less order.Less) {
	ts := [2]grid.Track{tA, tB}
	elems := make([]tagged, 0, tA.Len()+tB.Len())
	for s, t := range ts {
		for i := 0; i < t.Len(); i++ {
			elems = append(elems, tagged{v: m.Get(t.At(i), reg), src: int8(s), idx: i})
		}
	}
	ranks := taggedRanks(elems, less)
	for _, e := range elems {
		m.Del(ts[e.src].At(e.idx), reg)
	}
	m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
		for i, e := range elems {
			send(ts[e.src].At(e.idx), out.At(ranks[i]), reg, e.v)
		}
	})
}

// taggedRanks returns each element's rank in the tagged total order (the
// number of elements before it), found by sorting positions once. The
// order is total, so every correct sort yields the same ranks.
func taggedRanks(elems []tagged, less order.Less) []int {
	pos := make([]int, len(elems))
	for i := range pos {
		pos[i] = i
	}
	sort.Slice(pos, func(a, b int) bool { return elems[pos[a]].before(elems[pos[b]], less) })
	ranks := make([]int, len(elems))
	for r, i := range pos {
		ranks[i] = r
	}
	return ranks
}

// moveSplit and the final permutation both move each element once per
// recursion level; with diameters halving per level the total energy is the
// geometric series of Lemma V.7.
