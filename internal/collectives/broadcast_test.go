package collectives

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/machine"
)

func checkAll(t *testing.T, m *machine.Machine, r grid.Rect, reg machine.Reg, want machine.Value) {
	t.Helper()
	for row := 0; row < r.H; row++ {
		for col := 0; col < r.W; col++ {
			if got := m.Get(r.At(row, col), reg); got != want {
				t.Fatalf("PE (%d,%d): got %v, want %v", row, col, got, want)
			}
		}
	}
}

func TestBroadcastSquare(t *testing.T) {
	for _, side := range []int{1, 2, 4, 8, 16} {
		m := machine.New()
		r := grid.Square(machine.Coord{}, side)
		m.Set(r.Origin, "v", 3.25)
		Broadcast(m, r, "v")
		checkAll(t, m, r, "v", 3.25)
	}
}

func TestBroadcastRectangles(t *testing.T) {
	shapes := [][2]int{{1, 16}, {16, 1}, {4, 16}, {16, 4}, {8, 2}, {2, 8}, {4, 12}, {12, 4}}
	for _, s := range shapes {
		m := machine.New()
		r := grid.Rect{Origin: machine.Coord{Row: 3, Col: -5}, H: s[0], W: s[1]}
		m.Set(r.Origin, "v", 7)
		Broadcast(m, r, "v")
		checkAll(t, m, r, "v", 7)
	}
}

func TestBroadcast2DEnergyLinear(t *testing.T) {
	// Lemma IV.1: on a square w x w subgrid the broadcast is O(w^2) = O(n)
	// energy, i.e. no log factor. Check energy/n stays below a constant.
	for _, side := range []int{4, 8, 16, 32, 64} {
		m := machine.New()
		r := grid.Square(machine.Coord{}, side)
		m.Set(r.Origin, "v", 1)
		Broadcast(m, r, "v")
		n := int64(side * side)
		if e := m.Metrics().Energy; e > 4*n {
			t.Errorf("side %d: broadcast energy %d > 4n = %d", side, e, 4*n)
		}
	}
}

func TestBroadcastDepthLogarithmic(t *testing.T) {
	for _, side := range []int{4, 8, 16, 32, 64} {
		m := machine.New()
		r := grid.Square(machine.Coord{}, side)
		m.Set(r.Origin, "v", 1)
		Broadcast(m, r, "v")
		// Depth of the recursive quadrant broadcast is exactly log2(side)
		// (one level per halving; the three corner sends per level are
		// sequential from the same PE but mutually independent).
		logn := int64(0)
		for s := side; s > 1; s /= 2 {
			logn++
		}
		if d := m.Metrics().Depth; d != logn {
			t.Errorf("side %d: broadcast depth %d, want %d", side, d, logn)
		}
	}
}

func TestBroadcastDistanceLinearInSide(t *testing.T) {
	// Lemma IV.1: distance O(w + h). The recursion's distances form a
	// geometric series, so distance <= 4*(w+h).
	for _, side := range []int{4, 16, 64} {
		m := machine.New()
		r := grid.Square(machine.Coord{}, side)
		m.Set(r.Origin, "v", 1)
		Broadcast(m, r, "v")
		if d := m.Metrics().Distance; d > int64(4*2*side) {
			t.Errorf("side %d: broadcast distance %d too large", side, d)
		}
	}
}

func TestBroadcastTrackBaselineHasLogFactor(t *testing.T) {
	// The binary-tree broadcast over a row-major layout costs
	// Theta(n log n): verify it exceeds the 2-D broadcast by a growing
	// factor.
	prevRatio := 0.0
	for _, side := range []int{8, 16, 32, 64} {
		r := grid.Square(machine.Coord{}, side)

		m1 := machine.New()
		m1.Set(r.Origin, "v", 1)
		Broadcast(m1, r, "v")

		m2 := machine.New()
		m2.Set(r.Origin, "v", 1)
		BroadcastTrack(m2, grid.RowMajor(r), "v")

		ratio := float64(m2.Metrics().Energy) / float64(m1.Metrics().Energy)
		if ratio <= prevRatio {
			t.Errorf("side %d: tree/2D energy ratio %.2f did not grow (prev %.2f)", side, ratio, prevRatio)
		}
		prevRatio = ratio
	}
}

func TestBroadcastChain(t *testing.T) {
	m := machine.New()
	r := grid.Square(machine.Coord{}, 4)
	tr := grid.ZOrder(r)
	m.Set(tr.At(0), "v", 11)
	BroadcastChain(m, tr, "v")
	checkAll(t, m, r, "v", 11)
	if d := m.Metrics().Depth; d != int64(tr.Len()-1) {
		t.Errorf("chain depth %d, want %d", d, tr.Len()-1)
	}
}

func TestBroadcastMemoryConstant(t *testing.T) {
	// The broadcast uses a single register per PE regardless of n.
	for _, side := range []int{4, 32} {
		m := machine.NewWithMemoryLimit(1)
		r := grid.Square(machine.Coord{}, side)
		m.Set(r.Origin, "v", 1)
		Broadcast(m, r, "v") // panics if any PE exceeds one register
	}
}

// TestBroadcastSteadyStateAllocFree: once a recycled machine's tiles are
// warm, a 2-D broadcast allocates nothing on the host; the quadrant splits
// stay on the stack.
func TestBroadcastSteadyStateAllocFree(t *testing.T) {
	m := machine.New()
	r := grid.Square(machine.Coord{}, 32)
	work := func() {
		m.Reset()
		m.Set(r.Origin, "v", 1.0)
		Broadcast(m, r, "v")
	}
	work() // warm the tiles and per-PE register slices
	if avg := testing.AllocsPerRun(20, work); avg != 0 {
		t.Errorf("warmed 32x32 Broadcast = %.1f allocs/run, want 0", avg)
	}
}
