package core

import (
	"fmt"

	"repro/internal/collectives"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/order"
	"repro/internal/sortnet"
	"repro/internal/zorder"
)

// SplitCounts is the result of SelectInSorted: among the k smallest elements
// of A || B (under the total order with ties broken towards A and lower
// indices), KA come from A and KB from B, with KA + KB = k.
type SplitCounts struct {
	KA, KB int
}

// SelectInSorted finds the rank-k element (1 <= k <= nA+nB) of two sorted
// arrays A and B stored in register reg on tracks tA and tB, and returns how
// the k smallest elements split between A and B. It implements the
// multiselection of Section V-C:
//
//  1. gather every step-th element of A and B into a sample S (step =
//     2*floor(sqrt n); see MultiSelect);
//  2. sort the sample with All-Pairs Sort;
//  3. pick the guide element x = S_{floor((k-1)/step)}, whose global rank
//     is guaranteed to be at most k-1;
//  4. locate the predecessor boundaries a = |{A < x}| and b = |{B < x}|
//     (broadcast + local test + reduction instead of the paper's binary
//     search — same energy budget, distance-optimal; DESIGN.md subst. 2);
//  5. narrow the search to windows of O(sqrt n) elements starting at a and
//     b, and
//  6. recurse on the two windows — which are again sorted arrays — for the
//     rank-(k-a-b) element, bottoming out in an All-Pairs Sort of O(1)
//     elements.
//
// Step 6 refines the paper's construction, which All-Pairs-Sorts the
// O(sqrt n)-element windows directly; recursing instead costs
// T(n) = O(n^{5/4}) + T(O(sqrt n)) = O(n^{5/4}) with O(log n) depth and
// O(sqrt n) distance — the same bounds with a much smaller constant (the
// window sort's Theta(w^{5/2}) term would otherwise dominate at practical
// sizes).
//
// scratch must be a square region of side at least SelectScratchSide(nA+nB).
// Costs (Lemma V.6): O(n^{5/4}) energy, O(log n) depth, O(sqrt n) distance.
func SelectInSorted(m *machine.Machine, tA, tB grid.Track, reg machine.Reg, k int, scratch grid.Rect, less order.Less) SplitCounts {
	return MultiSelect(m, tA, tB, reg, []int{k}, scratch, less)[0]
}

// MultiSelect answers several rank queries over the same pair of sorted
// arrays, sharing one sample gather and one sample sort across all ranks —
// the multiselection the merge needs for its n/4, n/2, 3n/4 splits. The
// per-rank work (predecessor counts and the window recursion) runs as
// independent branches. Same per-call bounds as SelectInSorted.
func MultiSelect(m *machine.Machine, tA, tB grid.Track, reg machine.Reg, ks []int, scratch grid.Rect, less order.Less) []SplitCounts {
	nA, nB := tA.Len(), tB.Len()
	n := nA + nB
	for _, k := range ks {
		if k < 1 || k > n {
			panic(fmt.Sprintf("core: MultiSelect rank %d out of range [1,%d]", k, n))
		}
	}
	lt := taggedLess(less)
	out := make([]SplitCounts, len(ks))

	// Small inputs: gather and sort everything once with a bitonic network
	// on a compact subgrid and read off every rank. (The cutoff also
	// guarantees the window recursion strictly shrinks: for n > 160,
	// 6*step+8 < n.)
	if n <= 160 {
		return selectSmall(m, tA, tB, reg, ks, scratch, lt)
	}

	// Sampling every 2*floor(sqrt n)-th element halves the sample (the
	// sample's All-Pairs Sort is the dominant cost) at the price of a
	// twice-wider window, which only feeds the cheap recursion.
	step := 2 * isqrt(n)
	// Step 1: gather the samples (indices 0, step, 2*step, ... of each
	// array) into the scratch row-major track, tagged with their source.
	sTrack := grid.RowMajor(scratch)
	var sample []tagged
	m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
		emit := func(t grid.Track, src int8, idx int) {
			v := tagged{v: m.Get(t.At(idx), reg), src: src, idx: idx}
			send(t.At(idx), sTrack.At(len(sample)), "sel2.s", v)
			sample = append(sample, v)
		}
		for i := 0; i < nA; i += step {
			emit(tA, 0, i)
		}
		for i := 0; i < nB; i += step {
			emit(tB, 1, i)
		}
	})
	s := len(sample)

	// Step 2: All-Pairs Sort the sample within the scratch region, once
	// for all ranks.
	AllPairsSort(m, grid.Slice(sTrack, 0, s), "sel2.s", s, scratch, lt)

	// Steps 3-6 per rank, as independent branches (they read the shared
	// sample and arrays, and each cleans its scratch before the next runs).
	branches := make([]func(), len(ks))
	for i, k := range ks {
		i, k := i, k
		branches[i] = func() {
			out[i] = selectOneRank(m, tA, tB, reg, k, step, sTrack, s, scratch, less)
		}
	}
	m.Independent(branches...)
	grid.Clear(m, sTrack, "sel2.s", s)
	return out
}

// selectOneRank runs steps 3-6 for one rank, given the sorted sample.
func selectOneRank(m *machine.Machine, tA, tB grid.Track, reg machine.Reg, k, step int, sTrack grid.Track, s int, scratch grid.Rect, less order.Less) SplitCounts {
	nA, nB := tA.Len(), tB.Len()

	// Step 3: choose the guide element x = S_l with l = floor((k-1)/step).
	// With samples at indices 0, step, 2*step, ... of each array, S_l has
	// global rank in [(l-2)*step, l*step], so rank(x) <= k-1 (the target
	// is not below the window) and k-1-rank(x) <= 3*step (the window need
	// only extend O(step) beyond x).
	l := (k - 1) / step
	if l >= s {
		l = s - 1 // unreachable: |S| > (n-1)/step >= l; kept defensively
	}
	var a, b int
	if l >= 0 {
		x := m.Get(sTrack.At(l), "sel2.s").(tagged)
		// Step 4: predecessor boundaries by counting elements below x.
		a = countBelow(m, tA, reg, 0, x, sTrack.At(l), less)
		b = countBelow(m, tB, reg, 1, x, sTrack.At(l), less)
	}

	// Step 5: windows of W elements starting at a and b. W = 3*step + 4
	// slightly over-covers the paper's 2*floor(sqrt n)+1 bound (our guide
	// rank bracket is one sampling block coarser); same asymptotics.
	w := 3*step + 4
	wa := min(nA-a, w)
	wb := min(nB-b, w)
	if k-a-b < 1 || k-a-b > wa+wb {
		panic(fmt.Sprintf("core: selection window [a=%d,b=%d,w=%d] missed rank %d", a, b, w, k))
	}

	// Step 6: recurse on the windows, which are sorted subarrays of A and
	// B, translating the rank and the resulting split counts. The tagged
	// total order is translation-invariant in the indices, so the
	// recursion's tie-breaking is consistent with the outer call's. The
	// recursion stages its (much smaller) sample beyond the live one.
	subScratch := grid.Rect{Origin: scratch.Origin.Add(1, 0), H: scratch.H - 1, W: scratch.W}
	sub := SelectInSorted(m, grid.Slice(tA, a, wa), grid.Slice(tB, b, wb), reg, k-a-b, subScratch, less)
	return SplitCounts{KA: a + sub.KA, KB: b + sub.KB}
}

// SelectScratchSide returns the required scratch side for SelectInSorted on
// n total elements: enough for an All-Pairs Sort of the O(sqrt n)-sized
// sample, and at least the staging-track length of the small case.
func SelectScratchSide(n int) int {
	s := isqrt(n) + 3 // sample size upper bound at spacing 2*isqrt(n)
	need := max(AllPairsScratchSide(s), s)
	if n <= 160 {
		// selectSmall's compact bitonic square.
		need = max(need, grid.Pow2Side(n))
	}
	// Recursive windows are smaller than n and reuse the same scratch, so
	// the small-case requirement applies to every call.
	return max(need, 16)
}

// selectSmall handles small inputs: gather A||B (tagged) onto a compact
// power-of-two square inside the scratch, pad to a power-of-two count,
// bitonic-sort once and read off every requested rank. O(n^{3/2} log n)
// energy on O(1)-bounded n, O(log^2 n) depth.
func selectSmall(m *machine.Machine, tA, tB grid.Track, reg machine.Reg, ks []int, scratch grid.Rect, lt order.Less) []SplitCounts {
	nA, nB := tA.Len(), tB.Len()
	n := nA + nB
	sq := grid.Square(scratch.Origin, grid.Pow2Side(n))
	sTrack := grid.RowMajor(sq)
	s2 := zorder.NextPow2(n)
	plt := paddedLess(lt)
	m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
		for i := 0; i < nA; i++ {
			send(tA.At(i), sTrack.At(i), "sel2.w", padded{v: tagged{v: m.Get(tA.At(i), reg), src: 0, idx: i}})
		}
		for i := 0; i < nB; i++ {
			send(tB.At(i), sTrack.At(nA+i), "sel2.w", padded{v: tagged{v: m.Get(tB.At(i), reg), src: 1, idx: i}})
		}
	})
	for i := n; i < s2; i++ {
		m.Set(sTrack.At(i), "sel2.w", padded{inf: 1})
	}
	sortnet.Sort(m, sTrack, "sel2.w", s2, plt)
	out := make([]SplitCounts, len(ks))
	for i, k := range ks {
		target := m.Get(sTrack.At(k-1), "sel2.w").(padded).v.(tagged)
		if target.src == 0 {
			out[i] = SplitCounts{KA: target.idx + 1, KB: k - target.idx - 1}
		} else {
			out[i] = SplitCounts{KA: k - target.idx - 1, KB: target.idx + 1}
		}
	}
	grid.Clear(m, sTrack, "sel2.w", s2)
	return out
}

// countBelow counts the elements of the sorted array on track t that are
// strictly below x in the tagged total order: send x from its location in
// the sorted sample to the track's bounding rectangle, 2-D broadcast it
// there, test locally, and 2-D reduce the indicator. For the contiguous
// row-major tracks the merge uses, the bounding rectangle has O(len) area,
// so this costs O(len) energy, O(log len) depth and O(diam) distance —
// replacing the paper's binary search as described in DESIGN.md (subst. 2).
// When the machine reports CountingOnly, countBelowHost charges the same
// messages and counts host-side.
func countBelow(m *machine.Machine, t grid.Track, reg machine.Reg, src int8, x tagged, from machine.Coord, less order.Less) int {
	n := t.Len()
	if n == 0 {
		return 0
	}
	box := boundingRect(t)
	if m.CountingOnly() {
		return countBelowHost(m, t, reg, src, x, from, less, box)
	}
	m.SendValue(from, box.Origin, "sel2.x", x)
	collectives.Broadcast(m, box, "sel2.x")
	// Indicator: 1 on track cells below the pivot, 0 elsewhere in the box.
	for row := 0; row < box.H; row++ {
		for col := 0; col < box.W; col++ {
			m.Set(box.At(row, col), "sel2.cnt", int64(0))
		}
	}
	for i := 0; i < n; i++ {
		c := t.At(i)
		if (tagged{v: m.Get(c, reg), src: src, idx: i}).before(m.Get(c, "sel2.x").(tagged), less) {
			m.Set(c, "sel2.cnt", int64(1))
		}
	}
	collectives.Reduce(m, box, "sel2.cnt", collectives.AddInt)
	cnt := int(m.Get(box.Origin, "sel2.cnt").(int64))
	for row := 0; row < box.H; row++ {
		for col := 0; col < box.W; col++ {
			m.Del(box.At(row, col), "sel2.cnt")
			m.Del(box.At(row, col), "sel2.x")
		}
	}
	return cnt
}

// countBelowHost is countBelow's counting form: it counts the elements
// below x host-side, then charges the pivot's send to the box origin and
// the Broadcast and Reduce patterns on one binding of the machine's Wires
// kernel to the box's PEs (and to from, when it lies outside the box), so
// no sel2.x or sel2.cnt register materializes.
func countBelowHost(m *machine.Machine, t grid.Track, reg machine.Reg, src int8, x tagged, from machine.Coord, less order.Less, box grid.Rect) int {
	cnt := 0
	for i := 0; i < t.Len(); i++ {
		if (tagged{v: m.Get(t.At(i), reg), src: src, idx: i}).before(x, less) {
			cnt++
		}
	}
	cs := make([]machine.Coord, box.Size(), box.Size()+1)
	for i := range cs {
		cs[i] = box.At(i/box.W, i%box.W)
	}
	wire := func(c machine.Coord) int { return (c.Row-box.Origin.Row)*box.W + c.Col - box.Origin.Col }
	fromWire := len(cs)
	if box.Contains(from) {
		fromWire = wire(from)
	} else {
		cs = append(cs, from)
	}
	w := m.BindWires(cs)
	send := func(a, b machine.Coord) { w.Send(wire(a), wire(b)) }
	w.Send(fromWire, 0)
	collectives.BroadcastPattern(box, send)
	collectives.ReducePattern(box, send)
	w.Close()
	return cnt
}

// boundingRect returns the smallest rectangle covering all track cells.
func boundingRect(t grid.Track) grid.Rect {
	first := t.At(0)
	minR, maxR, minC, maxC := first.Row, first.Row, first.Col, first.Col
	for i := 1; i < t.Len(); i++ {
		c := t.At(i)
		if c.Row < minR {
			minR = c.Row
		}
		if c.Row > maxR {
			maxR = c.Row
		}
		if c.Col < minC {
			minC = c.Col
		}
		if c.Col > maxC {
			maxC = c.Col
		}
	}
	return grid.Rect{Origin: machine.Coord{Row: minR, Col: minC}, H: maxR - minR + 1, W: maxC - minC + 1}
}

func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}
