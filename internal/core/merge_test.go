package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/order"
	"repro/internal/zorder"
)

// mergeSetup places two sorted arrays in the top and bottom quadrant pair of
// a square region (as the mergesort does) and returns everything needed to
// merge them into the top half.
func mergeSetup(a, b []float64) (*machine.Machine, grid.Track, grid.Track, grid.Rect) {
	m := machine.New()
	side := 2
	for side*side/4 < len(a) || side*side/4 < len(b) {
		side *= 2
	}
	r := grid.Square(machine.Coord{}, side)
	q := r.Quadrants()
	tA := grid.Slice(grid.RowMajor(q[0]), 0, len(a))
	tB := grid.Slice(grid.RowMajor(q[1]), 0, len(b))
	for i, v := range a {
		m.Set(tA.At(i), "v", v)
	}
	for i, v := range b {
		m.Set(tB.At(i), "v", v)
	}
	return m, tA, tB, r.TopHalf()
}

func TestMergeTwoFullQuadrants(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, quarter := range []int{1, 4, 16, 64, 256} {
		a := sortedRandom(rng, quarter, 100)
		b := sortedRandom(rng, quarter, 100)
		m, tA, tB, dst := mergeSetup(a, b)
		Merge(m, tA, tB, "v", dst, order.Float64)
		want := append(append([]float64(nil), a...), b...)
		sort.Float64s(want)
		out := grid.RowMajor(dst)
		for i := range want {
			if got := m.Get(out.At(i), "v").(float64); got != want[i] {
				t.Fatalf("quarter=%d: merged[%d] = %v, want %v", quarter, i, got, want[i])
			}
		}
	}
}

func TestMergeQuick(t *testing.T) {
	f := func(rawA, rawB []int8) bool {
		quarter := 16
		a := make([]float64, quarter)
		b := make([]float64, quarter)
		for i := 0; i < quarter; i++ {
			if i < len(rawA) {
				a[i] = float64(rawA[i])
			}
			if i < len(rawB) {
				b[i] = float64(rawB[i])
			}
		}
		sort.Float64s(a)
		sort.Float64s(b)
		m, tA, tB, dst := mergeSetup(a, b)
		Merge(m, tA, tB, "v", dst, order.Float64)
		want := append(append([]float64(nil), a...), b...)
		sort.Float64s(want)
		out := grid.RowMajor(dst)
		for i := range want {
			if m.Get(out.At(i), "v").(float64) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMergeInterleavedAndDisjoint(t *testing.T) {
	quarter := 64
	a := make([]float64, quarter)
	b := make([]float64, quarter)
	// Perfectly interleaved.
	for i := range a {
		a[i] = float64(2 * i)
		b[i] = float64(2*i + 1)
	}
	m, tA, tB, dst := mergeSetup(a, b)
	Merge(m, tA, tB, "v", dst, order.Float64)
	out := grid.RowMajor(dst)
	for i := 0; i < 2*quarter; i++ {
		if got := m.Get(out.At(i), "v").(float64); got != float64(i) {
			t.Fatalf("interleaved merged[%d] = %v", i, got)
		}
	}
	// Fully disjoint (all of B below all of A).
	for i := range a {
		a[i] = float64(i + quarter)
		b[i] = float64(i)
	}
	m, tA, tB, dst = mergeSetup(a, b)
	Merge(m, tA, tB, "v", dst, order.Float64)
	out = grid.RowMajor(dst)
	for i := 0; i < 2*quarter; i++ {
		if got := m.Get(out.At(i), "v").(float64); got != float64(i) {
			t.Fatalf("disjoint merged[%d] = %v", i, got)
		}
	}
}

func TestMergeAllEqual(t *testing.T) {
	quarter := 64
	a := make([]float64, quarter)
	b := make([]float64, quarter)
	for i := range a {
		a[i], b[i] = 7, 7
	}
	m, tA, tB, dst := mergeSetup(a, b)
	Merge(m, tA, tB, "v", dst, order.Float64)
	out := grid.RowMajor(dst)
	for i := 0; i < 2*quarter; i++ {
		if got := m.Get(out.At(i), "v").(float64); got != 7 {
			t.Fatalf("equal merged[%d] = %v", i, got)
		}
	}
}

func TestMergeDepthLogSquared(t *testing.T) {
	// Lemma V.7: O(log^2 n) depth. Depth growth per quadrupling must
	// shrink relative to total (sub-polynomial): check d(4n)/d(n) < 2.
	rng := rand.New(rand.NewSource(22))
	depthAt := func(quarter int) float64 {
		a := sortedRandom(rng, quarter, 100)
		b := sortedRandom(rng, quarter, 100)
		m, tA, tB, dst := mergeSetup(a, b)
		Merge(m, tA, tB, "v", dst, order.Float64)
		return float64(m.Metrics().Depth)
	}
	if r := depthAt(1024) / depthAt(256); r >= 2 {
		t.Errorf("merge depth quadrupling ratio %.2f not polylogarithmic", r)
	}
}

func TestMergeEnergyThreeHalves(t *testing.T) {
	// Lemma V.7: O(n^{3/2}) energy — quadrupling n should scale energy by
	// about 8, certainly below 16.
	rng := rand.New(rand.NewSource(23))
	energyAt := func(quarter int) float64 {
		a := sortedRandom(rng, quarter, 100)
		b := sortedRandom(rng, quarter, 100)
		m, tA, tB, dst := mergeSetup(a, b)
		Merge(m, tA, tB, "v", dst, order.Float64)
		return float64(m.Metrics().Energy)
	}
	r := energyAt(1024) / energyAt(256)
	if r > 14 {
		t.Errorf("merge energy quadrupling ratio %.1f too large for O(n^{3/2})", r)
	}
}

func TestMergeSortSquares(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, side := range []int{1, 2, 4, 8, 16, 32} {
		n := side * side
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64() * 1000
		}
		m := machine.New()
		r := grid.Square(machine.Coord{}, side)
		tr := grid.RowMajor(r)
		for i, v := range vals {
			m.Set(tr.At(i), "v", v)
		}
		MergeSort(m, r, "v", order.Float64)
		want := append([]float64(nil), vals...)
		sort.Float64s(want)
		for i := range want {
			if got := m.Get(tr.At(i), "v").(float64); got != want[i] {
				t.Fatalf("side %d: sorted[%d] = %v, want %v", side, i, got, want[i])
			}
		}
	}
}

func TestMergeSortQuickPermutation(t *testing.T) {
	f := func(raw []int16) bool {
		side := 8
		n := side * side
		vals := make([]float64, n)
		for i := range vals {
			if i < len(raw) {
				vals[i] = float64(raw[i])
			}
		}
		m := machine.New()
		r := grid.Square(machine.Coord{}, side)
		tr := grid.RowMajor(r)
		for i, v := range vals {
			m.Set(tr.At(i), "v", v)
		}
		MergeSort(m, r, "v", order.Float64)
		want := append([]float64(nil), vals...)
		sort.Float64s(want)
		for i := range want {
			if m.Get(tr.At(i), "v").(float64) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestMergeSortAdversarialInputs(t *testing.T) {
	side := 16
	n := side * side
	inputs := map[string]func(i int) float64{
		"sorted":    func(i int) float64 { return float64(i) },
		"reversed":  func(i int) float64 { return float64(n - i) },
		"constant":  func(i int) float64 { return 42 },
		"organpipe": func(i int) float64 { return float64(min(i, n-i)) },
		"alternate": func(i int) float64 { return float64(i % 2) },
	}
	for name, gen := range inputs {
		m := machine.New()
		r := grid.Square(machine.Coord{}, side)
		tr := grid.RowMajor(r)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = gen(i)
			m.Set(tr.At(i), "v", vals[i])
		}
		MergeSort(m, r, "v", order.Float64)
		sort.Float64s(vals)
		for i := range vals {
			if got := m.Get(tr.At(i), "v").(float64); got != vals[i] {
				t.Fatalf("%s: sorted[%d] = %v, want %v", name, i, got, vals[i])
			}
		}
	}
}

func TestMergeSortEnergyOptimal(t *testing.T) {
	// Theorem V.8: O(n^{3/2}) energy.
	rng := rand.New(rand.NewSource(25))
	energyAt := func(side int) float64 {
		n := side * side
		m := machine.New()
		r := grid.Square(machine.Coord{}, side)
		tr := grid.RowMajor(r)
		for i := 0; i < n; i++ {
			m.Set(tr.At(i), "v", rng.Float64())
		}
		MergeSort(m, r, "v", order.Float64)
		return float64(m.Metrics().Energy)
	}
	if r := energyAt(32) / energyAt(16); r > 14 {
		t.Errorf("mergesort energy quadrupling ratio %.1f too large for O(n^{3/2})", r)
	}
}

func TestMergeSortDistanceSqrt(t *testing.T) {
	// Theorem V.8: O(sqrt n) distance — doubling the side should roughly
	// double the distance, not square it.
	rng := rand.New(rand.NewSource(26))
	distAt := func(side int) float64 {
		m := machine.New()
		r := grid.Square(machine.Coord{}, side)
		tr := grid.RowMajor(r)
		for i := 0; i < side*side; i++ {
			m.Set(tr.At(i), "v", rng.Float64())
		}
		MergeSort(m, r, "v", order.Float64)
		return float64(m.Metrics().Distance)
	}
	// Ratios decline toward the asymptotic 2x per side-doubling (measured:
	// 4.45 at 16->32, 3.04 at 32->64, 2.49 at 64->128); test past the
	// smallest pre-asymptotic step.
	if r := distAt(64) / distAt(32); r > 3.5 {
		t.Errorf("mergesort distance doubling ratio %.1f too large for O(sqrt n)", r)
	}
}

func TestSortToTrackZOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	side := 8
	n := side * side
	m := machine.New()
	r := grid.Square(machine.Coord{}, side)
	tr := grid.RowMajor(r)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64()
		m.Set(tr.At(i), "v", vals[i])
	}
	zt := grid.ZOrder(r)
	SortToTrack(m, r, "v", zt, "z", order.Float64)
	sort.Float64s(vals)
	for i := range vals {
		if got := m.Get(zt.At(i), "z").(float64); got != vals[i] {
			t.Fatalf("z-order sorted[%d] = %v, want %v", i, got, vals[i])
		}
	}
}

func TestPermuteReversalEnergy(t *testing.T) {
	// Lemma V.1: the row-reversal permutation forces Omega(n^{3/2})
	// energy. Check the measured energy of the direct routing against the
	// n^{3/2} scale from below and above.
	for _, side := range []int{8, 16, 32} {
		n := side * side
		m := machine.New()
		r := grid.Square(machine.Coord{}, side)
		tr := grid.RowMajor(r)
		for i := 0; i < n; i++ {
			m.Set(tr.At(i), "v", i)
		}
		perm := make([]int, n)
		for i := range perm {
			perm[i] = n - 1 - i
		}
		Permute(m, tr, "v", tr, "v", perm)
		e := float64(m.Metrics().Energy)
		scale := float64(n) * float64(side)
		if e < scale/4 || e > 4*scale {
			t.Errorf("side %d: reversal energy %.0f not Theta(n^{3/2}) = ~%.0f", side, e, scale)
		}
	}
}

// ranksByCount is the reference ranking: each element's rank is the number
// of others before it in the tagged order (value, then source array, then
// index), counted over all pairs.
func ranksByCount(elems []tagged, less order.Less) []int {
	precedes := func(x, y tagged) bool {
		if less(x.v, y.v) || less(y.v, x.v) {
			return less(x.v, y.v)
		}
		if x.src != y.src {
			return x.src < y.src
		}
		return x.idx < y.idx
	}
	ranks := make([]int, len(elems))
	for i := range elems {
		for j := range elems {
			if j != i && precedes(elems[j], elems[i]) {
				ranks[i]++
			}
		}
	}
	return ranks
}

// twoArrays tags a and b as the elements of arrays A and B.
func twoArrays(a, b []float64) []tagged {
	var elems []tagged
	for i, v := range a {
		elems = append(elems, tagged{v: v, src: 0, idx: i})
	}
	for i, v := range b {
		elems = append(elems, tagged{v: v, src: 1, idx: i})
	}
	return elems
}

func TestTaggedRanksMatchPairCount(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	check := func(name string, elems []tagged) {
		t.Helper()
		if got, want := taggedRanks(elems, order.Float64), ranksByCount(elems, order.Float64); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s (%d elements): ranks %v, want %v", name, len(elems), got, want)
		}
	}
	draw := func(n, distinct int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(rng.Intn(distinct))
		}
		return v
	}
	// Heavy ties: at most four distinct values, split unevenly.
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		nA := rng.Intn(n + 1)
		vals := draw(n, 1+rng.Intn(4))
		check("ties", twoArrays(vals[:nA], vals[nA:]))
	}
	// One-sided: a single sorted array, as every merge of sorted runs
	// produces.
	for _, n := range []int{17, 64, 100, 255, 256, 1000, 1024} {
		vals := draw(n, 1+n/8)
		sort.Float64s(vals)
		check("one-sided A", twoArrays(vals, nil))
		check("one-sided B", twoArrays(nil, vals))
	}
	// MergeSort's base case: unsorted row-major halves of up to 16 cells.
	for trial := 0; trial < 100; trial++ {
		n := []int{4, 16}[trial%2]
		vals := draw(n, 1+rng.Intn(n))
		check("base case", twoArrays(vals[:n/2], vals[n/2:]))
	}
}

// runMergePin runs op on an n-element input on the square of side sqrt(n),
// on the counting-only path when batch is set, and returns the machine.
// "random" draws uniform values; "runs" is the sorted-runs input graph edge
// keys produce: Merge's A lies wholly below its B, and MergeSort's values
// ascend along the Z-order track, so every quadrant lies below the next and
// every merge is one-sided below its top-level split.
func runMergePin(op, input string, n int, batch bool) (*machine.Machine, grid.Rect) {
	r := grid.Square(machine.Coord{}, zorder.FloorSqrt(n))
	rng := rand.New(rand.NewSource(int64(n)))
	m := machine.New()
	m.SetBatchSends(batch)
	switch op {
	case "Merge":
		a, b := sortedRandom(rng, n/2, 1000), sortedRandom(rng, n/2, 1000)
		if input == "runs" {
			for i := range a {
				a[i], b[i] = float64(i), float64(n/2+i)
			}
		}
		tA, tB := grid.RowMajor(r.TopHalf()), grid.RowMajor(r.BottomHalf())
		for i := range a {
			m.Set(tA.At(i), "v", a[i])
			m.Set(tB.At(i), "v", b[i])
		}
		Merge(m, tA, tB, "v", r, order.Float64)
	case "MergeSort":
		t := grid.ZOrder(r)
		for i := 0; i < n; i++ {
			v := float64(i)
			if input == "random" {
				v = rng.Float64()
			}
			m.Set(t.At(i), "v", v)
		}
		MergeSort(m, r, "v", order.Float64)
	}
	return m, r
}

// TestMergeCostsPinned pins the model's costs of Merge and MergeSort, so
// host-side rewrites of the value path cannot move them. The values were
// recorded before ranks were computed by sorting instead of pair counting.
// The counting-only path (SetBatchSends) must charge the same costs; its
// PeakMemory may only be lower, since its payloads stay host-side.
func TestMergeCostsPinned(t *testing.T) {
	cases := []struct {
		op, input string
		n         int
		want      machine.Metrics
		touched   int
	}{
		{"Merge", "random", 256, machine.Metrics{Energy: 101155, Depth: 88, Distance: 343, Messages: 32144, PeakMemory: 5}, 560},
		{"Merge", "runs", 256, machine.Metrics{Energy: 81638, Depth: 70, Distance: 299, Messages: 25214, PeakMemory: 5}, 540},
		{"Merge", "random", 4096, machine.Metrics{Energy: 2793217, Depth: 336, Distance: 2933, Messages: 792685, PeakMemory: 6}, 5760},
		{"Merge", "runs", 4096, machine.Metrics{Energy: 365557, Depth: 151, Distance: 1754, Messages: 62643, PeakMemory: 5}, 5248},
		{"MergeSort", "random", 256, machine.Metrics{Energy: 167643, Depth: 169, Distance: 549, Messages: 55719, PeakMemory: 5}, 592},
		{"MergeSort", "runs", 256, machine.Metrics{Energy: 134790, Depth: 136, Distance: 478, Messages: 43726, PeakMemory: 5}, 560},
		{"MergeSort", "random", 4096, machine.Metrics{Energy: 11718044, Depth: 1139, Distance: 7533, Messages: 3526679, PeakMemory: 6}, 5992},
		{"MergeSort", "runs", 4096, machine.Metrics{Energy: 4387091, Depth: 618, Distance: 5121, Messages: 1244003, PeakMemory: 6}, 5600},
	}
	for _, c := range cases {
		for _, batch := range []bool{false, true} {
			m, r := runMergePin(c.op, c.input, c.n, batch)
			got := m.Metrics()
			if batch && got.PeakMemory <= c.want.PeakMemory {
				got.PeakMemory = c.want.PeakMemory
			}
			if got != c.want {
				t.Errorf("%s %s n=%d batch=%v: %v, want %v", c.op, c.input, c.n, batch, m.Metrics(), c.want)
			}
			if got := m.TouchedPEs(); got != c.touched {
				t.Errorf("%s %s n=%d batch=%v: %d touched PEs, want %d", c.op, c.input, c.n, batch, got, c.touched)
			}
			out := grid.RowMajor(r)
			for i := 1; i < c.n; i++ {
				if m.Get(out.At(i), "v").(float64) < m.Get(out.At(i-1), "v").(float64) {
					t.Fatalf("%s %s n=%d batch=%v: output unsorted at %d", c.op, c.input, c.n, batch, i)
				}
			}
		}
	}
}
