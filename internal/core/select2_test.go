package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/order"
)

// sel2Setup lays out two sorted arrays on adjacent square regions and
// returns the machine, tracks, scratch, and the merged reference array.
func sel2Setup(t *testing.T, a, b []float64) (*machine.Machine, grid.Track, grid.Track, grid.Rect) {
	t.Helper()
	m := machine.New()
	sideFor := func(n int) int {
		s := 1
		for s*s < n {
			s *= 2
		}
		return s
	}
	ra := grid.Square(machine.Coord{}, sideFor(len(a)))
	rb := grid.Square(machine.Coord{Row: 0, Col: ra.W + 1}, sideFor(len(b)))
	tA := grid.Slice(grid.RowMajor(ra), 0, len(a))
	tB := grid.Slice(grid.RowMajor(rb), 0, len(b))
	for i, v := range a {
		m.Set(tA.At(i), "v", v)
	}
	for i, v := range b {
		m.Set(tB.At(i), "v", v)
	}
	scratch := grid.Square(machine.Coord{Row: 40, Col: 0}, SelectScratchSide(len(a)+len(b)))
	return m, tA, tB, scratch
}

// checkSplit verifies that (KA, KB) is a consistent k-split: KA+KB == k,
// max(A[:KA], B[:KB]) <= min(A[KA:], B[KB:]) under the tagged total order
// (values with ties resolved towards A / lower index).
func checkSplit(t *testing.T, a, b []float64, k int, sc SplitCounts) {
	t.Helper()
	if sc.KA+sc.KB != k {
		t.Fatalf("k=%d: split %v does not sum to k", k, sc)
	}
	if sc.KA < 0 || sc.KA > len(a) || sc.KB < 0 || sc.KB > len(b) {
		t.Fatalf("k=%d: split %v out of range", k, sc)
	}
	// All taken elements must be <= all untaken elements, with the A-side
	// winning ties (src order).
	type te struct {
		v   float64
		src int
		idx int
	}
	less := func(x, y te) bool {
		if x.v != y.v {
			return x.v < y.v
		}
		if x.src != y.src {
			return x.src < y.src
		}
		return x.idx < y.idx
	}
	var taken, rest []te
	for i, v := range a {
		e := te{v, 0, i}
		if i < sc.KA {
			taken = append(taken, e)
		} else {
			rest = append(rest, e)
		}
	}
	for i, v := range b {
		e := te{v, 1, i}
		if i < sc.KB {
			taken = append(taken, e)
		} else {
			rest = append(rest, e)
		}
	}
	for _, x := range taken {
		for _, y := range rest {
			if less(y, x) {
				t.Fatalf("k=%d split %v: untaken %v precedes taken %v", k, sc, y, x)
			}
		}
	}
}

func sortedRandom(rng *rand.Rand, n int, scale float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64() * scale
	}
	sort.Float64s(v)
	return v
}

func TestSelectInSortedExhaustiveSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sizes := range [][2]int{{1, 1}, {3, 2}, {4, 4}, {7, 9}, {16, 16}, {5, 0}, {0, 5}} {
		a := sortedRandom(rng, sizes[0], 10)
		b := sortedRandom(rng, sizes[1], 10)
		for k := 1; k <= len(a)+len(b); k++ {
			m, tA, tB, scratch := sel2Setup(t, a, b)
			sc := SelectInSorted(m, tA, tB, "v", k, scratch, order.Float64)
			checkSplit(t, a, b, k, sc)
		}
	}
}

func TestSelectInSortedLargeAllRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := sortedRandom(rng, 100, 50)
	b := sortedRandom(rng, 156, 50)
	n := len(a) + len(b)
	for k := 1; k <= n; k += 7 {
		m, tA, tB, scratch := sel2Setup(t, a, b)
		sc := SelectInSorted(m, tA, tB, "v", k, scratch, order.Float64)
		checkSplit(t, a, b, k, sc)
	}
	// Also the extremes.
	for _, k := range []int{1, 2, n - 1, n} {
		m, tA, tB, scratch := sel2Setup(t, a, b)
		sc := SelectInSorted(m, tA, tB, "v", k, scratch, order.Float64)
		checkSplit(t, a, b, k, sc)
	}
}

func TestSelectInSortedManyDuplicates(t *testing.T) {
	// Heavy ties stress the tagged total order.
	a := make([]float64, 64)
	b := make([]float64, 64)
	for i := range a {
		a[i] = float64(i / 16)
		b[i] = float64(i / 16)
	}
	for k := 1; k <= 128; k += 5 {
		m, tA, tB, scratch := sel2Setup(t, a, b)
		sc := SelectInSorted(m, tA, tB, "v", k, scratch, order.Float64)
		checkSplit(t, a, b, k, sc)
	}
}

func TestSelectInSortedSkewedSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := sortedRandom(rng, 250, 10)
	b := sortedRandom(rng, 6, 10)
	for k := 1; k <= 256; k += 11 {
		m, tA, tB, scratch := sel2Setup(t, a, b)
		sc := SelectInSorted(m, tA, tB, "v", k, scratch, order.Float64)
		checkSplit(t, a, b, k, sc)
	}
}

func TestSelectInSortedDisjointRanges(t *testing.T) {
	// All of A below all of B and vice versa.
	rng := rand.New(rand.NewSource(14))
	lo := sortedRandom(rng, 60, 1)
	hi := sortedRandom(rng, 70, 1)
	for i := range hi {
		hi[i] += 10
	}
	for k := 1; k <= 130; k += 13 {
		m, tA, tB, scratch := sel2Setup(t, lo, hi)
		checkSplit(t, lo, hi, k, SelectInSorted(m, tA, tB, "v", k, scratch, order.Float64))
		m2, tA2, tB2, scratch2 := sel2Setup(t, hi, lo)
		checkSplit(t, hi, lo, k, SelectInSorted(m2, tA2, tB2, "v", k, scratch2, order.Float64))
	}
}

func TestSelectInSortedDepthLogarithmic(t *testing.T) {
	// Lemma V.6: O(log n) depth.
	var prev int64
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{64, 256, 1024} {
		a := sortedRandom(rng, n/2, 100)
		b := sortedRandom(rng, n/2, 100)
		m, tA, tB, scratch := sel2Setup(t, a, b)
		SelectInSorted(m, tA, tB, "v", n/2, scratch, order.Float64)
		d := m.Metrics().Depth
		// O(log n) depth: each quadrupling may add only a bounded number
		// of hops (extra log-levels, the sqrt-window recursion cascade and
		// the constant-size bitonic base case).
		if prev != 0 && d > prev+64 {
			t.Errorf("n=%d: depth %d jumped from %d (not logarithmic)", n, d, prev)
		}
		prev = d
	}
}

func TestSelectInSortedEnergySubQuadratic(t *testing.T) {
	// Lemma V.6: O(n^{5/4}) energy. Quadrupling n should multiply energy
	// by roughly 4^{5/4} ~ 5.7 — certainly under 4^2 = 16.
	energyAt := func(n int) float64 {
		rng := rand.New(rand.NewSource(16))
		a := sortedRandom(rng, n/2, 100)
		b := sortedRandom(rng, n/2, 100)
		m, tA, tB, scratch := sel2Setup(t, a, b)
		SelectInSorted(m, tA, tB, "v", n/2, scratch, order.Float64)
		return float64(m.Metrics().Energy)
	}
	// Per-quadrupling geometric-mean ratio across two size steps: exact
	// n^{5/4} gives 4^{1.25} ~ 5.7; allow slack for power-of-two rounding
	// in the all-pairs block geometry but stay well under quadratic (16).
	perStep := math.Sqrt(energyAt(4096) / energyAt(256))
	if perStep > 11 {
		t.Errorf("select-in-sorted energy per-quadrupling ratio %.1f too large for O(n^{5/4})", perStep)
	}
}

func TestSelectInSortedLeavesInputsIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := sortedRandom(rng, 32, 10)
	b := sortedRandom(rng, 32, 10)
	m, tA, tB, scratch := sel2Setup(t, a, b)
	SelectInSorted(m, tA, tB, "v", 20, scratch, order.Float64)
	for i, v := range a {
		if got := m.Get(tA.At(i), "v").(float64); got != v {
			t.Fatalf("A[%d] mutated: %v != %v", i, got, v)
		}
	}
	for i, v := range b {
		if got := m.Get(tB.At(i), "v").(float64); got != v {
			t.Fatalf("B[%d] mutated: %v != %v", i, got, v)
		}
	}
}

// TestCountBelowCountingMatchesValue: countBelow's counting form must leave
// what its value path leaves — the count, metrics (PeakMemory at most the
// value path's), touched PEs, congestion, per-PE clocks and every live
// register — on boxes of every shape the broadcast and reduce patterns
// distinguish (1x1, 1-D, square, odd square, h > w and w > h with partial
// blocks, and a track that fills its box only partly), with the pivot
// arriving from outside the box, from its origin and from inside it, under
// every backend kind, with congestion off and on, at top level and inside
// nested Independent branches, on 1 and 4 shards.
func TestCountBelowCountingMatchesValue(t *testing.T) {
	origin := machine.Coord{Row: -3, Col: -5}
	var tracks []grid.Track
	for _, s := range [][2]int{{1, 1}, {1, 7}, {6, 1}, {4, 4}, {5, 5}, {7, 3}, {3, 8}} {
		tracks = append(tracks, grid.RowMajor(grid.Rect{Origin: origin, H: s[0], W: s[1]}))
	}
	tracks = append(tracks, grid.Slice(grid.RowMajor(grid.Rect{Origin: origin, H: 3, W: 8}), 5, 13))
	run := func(bk machine.Backend, tr grid.Track, from machine.Coord, cong, nested, counting bool, shards int) (peak int, state string) {
		m := machine.New()
		m.SetBackend(bk)
		m.SetShards(shards)
		m.SetBatchSends(counting)
		if cong {
			m.EnableCongestionTracking()
		}
		for i := 0; i < tr.Len(); i++ {
			m.Set(tr.At(i), "v", float64(i/2))
		}
		x := tagged{v: float64(tr.Len() / 3), src: 1, idx: 0}
		m.Set(from, "sel2.s", x)
		var counts []int
		count := func() { counts = append(counts, countBelow(m, tr, "v", 0, x, from, order.Float64)) }
		count()
		if nested {
			m.Independent(count, func() { m.Independent(count, count) })
			count()
		}
		met := m.Metrics()
		peak, met.PeakMemory = met.PeakMemory, 0 // compared separately
		out := fmt.Sprintf("%v %v touched=%d cong=%d/%d\n", counts, met, m.TouchedPEs(), m.MaxCongestion(), m.TotalLinkTraversals())
		for row := origin.Row - 2; row < origin.Row+10; row++ {
			for col := origin.Col - 2; col < origin.Col+11; col++ {
				c := machine.Coord{Row: row, Col: col}
				d, dist := m.Clock(c)
				out += fmt.Sprintf("%v %d/%d %v|", c, d, dist, m.Registers(c))
			}
		}
		return peak, out
	}
	for _, spec := range []string{"ideal", "mesh:5x3:2", "torus:4x4:3"} {
		bk, err := machine.ParseBackend(spec)
		if err != nil {
			t.Fatal(err)
		}
		for ti, tr := range tracks {
			box := boundingRect(tr)
			for _, from := range []machine.Coord{origin.Add(-1, 2), box.Origin, box.At(box.H-1, box.W-1)} {
				for _, cong := range []bool{false, true} {
					for _, nested := range []bool{false, true} {
						for _, k := range []int{1, 4} {
							wantPeak, want := run(bk, tr, from, cong, nested, false, k)
							gotPeak, got := run(bk, tr, from, cong, nested, true, k)
							if gotPeak > wantPeak || got != want {
								t.Fatalf("%s track %d from %v cong=%v nested=%v shards=%d: counting form differs:\ncounting (peak %d): %.600s\nvalue    (peak %d): %.600s",
									spec, ti, from, cong, nested, k, gotPeak, got, wantPeak, want)
							}
						}
					}
				}
			}
		}
	}
}
