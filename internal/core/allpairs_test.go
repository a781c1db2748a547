package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/order"
)

// apSetup places vals on the row-major track of a region and returns the
// machine, track, and a scratch region to the right.
func apSetup(vals []float64) (*machine.Machine, grid.Track, grid.Rect) {
	m := machine.New()
	side := grid.Pow2Side(len(vals))
	r := grid.Square(machine.Coord{}, side)
	t := grid.Slice(grid.RowMajor(r), 0, len(vals))
	for i, v := range vals {
		m.Set(t.At(i), "v", v)
	}
	scratch := grid.Square(machine.Coord{Row: 0, Col: side + 1}, AllPairsScratchSide(len(vals)))
	return m, t, scratch
}

func TestAllPairsSortsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 5, 8, 16, 25, 40} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64() * 100
		}
		m, tr, scratch := apSetup(vals)
		AllPairsSort(m, tr, "v", n, scratch, order.Float64)
		want := append([]float64(nil), vals...)
		sort.Float64s(want)
		for i := 0; i < n; i++ {
			if got := m.Get(tr.At(i), "v").(float64); got != want[i] {
				t.Fatalf("n=%d: sorted[%d] = %v, want %v", n, i, got, want[i])
			}
		}
	}
}

func TestAllPairsHandlesDuplicates(t *testing.T) {
	vals := []float64{3, 1, 3, 3, 1, 2, 2, 3, 1}
	m, tr, scratch := apSetup(vals)
	AllPairsSort(m, tr, "v", len(vals), scratch, order.Float64)
	want := append([]float64(nil), vals...)
	sort.Float64s(want)
	for i := range vals {
		if got := m.Get(tr.At(i), "v").(float64); got != want[i] {
			t.Fatalf("sorted[%d] = %v, want %v", i, got, want[i])
		}
	}
}

func TestAllPairsQuickPermutation(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 24 {
			raw = raw[:24]
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v)
		}
		m, tr, scratch := apSetup(vals)
		AllPairsSort(m, tr, "v", len(vals), scratch, order.Float64)
		want := append([]float64(nil), vals...)
		sort.Float64s(want)
		for i := range want {
			if m.Get(tr.At(i), "v").(float64) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAllPairsDepthLogarithmic(t *testing.T) {
	// Lemma V.5: O(log n) depth. Verify depth grows by at most a couple of
	// hops per quadrupling.
	var prev int64
	for _, n := range []int{16, 64, 256} {
		rng := rand.New(rand.NewSource(2))
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()
		}
		m, tr, scratch := apSetup(vals)
		AllPairsSort(m, tr, "v", n, scratch, order.Float64)
		d := m.Metrics().Depth
		if prev != 0 && d > prev+8 {
			t.Errorf("n=%d: all-pairs depth %d jumped from %d (not logarithmic)", n, d, prev)
		}
		prev = d
	}
}

func TestAllPairsEnergyExponent(t *testing.T) {
	// Lemma V.5: O(n^{5/2}) energy. Fit the growth between n and 4n:
	// energy ratio should be about 4^{2.5} = 32, certainly below 4^3.
	energyAt := func(n int) float64 {
		rng := rand.New(rand.NewSource(3))
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()
		}
		m, tr, scratch := apSetup(vals)
		AllPairsSort(m, tr, "v", n, scratch, order.Float64)
		return float64(m.Metrics().Energy)
	}
	r1 := energyAt(64) / energyAt(16)
	r2 := energyAt(256) / energyAt(64)
	for _, r := range []float64{r1, r2} {
		if r < 16 || r > 64 {
			t.Errorf("all-pairs energy quadrupling ratio %.1f outside [16,64] (want ~32 for n^2.5)", r)
		}
	}
}

func TestAllPairsCleansScratch(t *testing.T) {
	vals := []float64{5, 2, 9, 1}
	m, tr, scratch := apSetup(vals)
	AllPairsSort(m, tr, "v", len(vals), scratch, order.Float64)
	for row := 0; row < scratch.H; row++ {
		for col := 0; col < scratch.W; col++ {
			if regs := m.Registers(scratch.At(row, col)); len(regs) != 0 {
				t.Fatalf("scratch PE (%d,%d) left registers %v", row, col, regs)
			}
		}
	}
}

func TestAllPairsScratchSide(t *testing.T) {
	cases := [][2]int{{1, 1}, {2, 4}, {4, 4}, {5, 12}, {16, 16}, {17, 40}, {64, 64}}
	for _, c := range cases {
		if got := AllPairsScratchSide(c[0]); got != c[1] {
			t.Errorf("AllPairsScratchSide(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestAllPairsRejectsSmallScratch(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	m, tr, _ := apSetup(vals)
	defer func() {
		if recover() == nil {
			t.Error("undersized scratch did not panic")
		}
	}()
	AllPairsSort(m, tr, "v", 5, grid.Square(machine.Coord{Row: 0, Col: 100}, 2), order.Float64)
}
