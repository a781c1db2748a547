package zorder

import (
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for row := 0; row < 64; row++ {
		for col := 0; col < 64; col++ {
			i := Encode(row, col)
			r, c := Decode(i)
			if r != row || c != col {
				t.Fatalf("Decode(Encode(%d,%d)) = (%d,%d)", row, col, r, c)
			}
		}
	}
}

func TestEncodeQuadrantOrder(t *testing.T) {
	// The four cells of a 2x2 grid must appear in the paper's quadrant
	// order: top-left, top-right, bottom-left, bottom-right.
	want := [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	for i, w := range want {
		if got := Encode(w[0], w[1]); got != uint64(i) {
			t.Errorf("Encode(%d,%d) = %d, want %d", w[0], w[1], got, i)
		}
	}
}

func TestEncodeRecursiveStructure(t *testing.T) {
	// Cells of the top-left quadrant of a 2s x 2s grid must occupy Morton
	// indices [0, s*s), the top-right [s*s, 2*s*s), etc.
	const s = 8
	quadOf := func(row, col int) int {
		q := 0
		if row >= s {
			q += 2
		}
		if col >= s {
			q++
		}
		return q
	}
	for row := 0; row < 2*s; row++ {
		for col := 0; col < 2*s; col++ {
			i := Encode(row, col)
			if got, want := int(i)/(s*s), quadOf(row, col); got != want {
				t.Fatalf("cell (%d,%d) morton %d in quadrant %d, want %d", row, col, i, got, want)
			}
		}
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(row, col uint16) bool {
		r, c := Decode(Encode(int(row), int(col)))
		return r == int(row) && c == int(col)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeMonotoneInterleave(t *testing.T) {
	// Encoding is strictly monotone along each axis when the other
	// coordinate is fixed.
	f := func(a, b uint8, col uint8) bool {
		if a == b {
			return true
		}
		lo, hi := int(a), int(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		return Encode(lo, int(col)) < Encode(hi, int(col))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCurveVisitsAllCellsOnce(t *testing.T) {
	for _, side := range []int{1, 2, 4, 8, 16} {
		cells := Curve(side)
		if len(cells) != side*side {
			t.Fatalf("Curve(%d): %d cells", side, len(cells))
		}
		seen := make(map[[2]int]bool, len(cells))
		for _, c := range cells {
			if c[0] < 0 || c[0] >= side || c[1] < 0 || c[1] >= side {
				t.Fatalf("Curve(%d): out of range cell %v", side, c)
			}
			if seen[c] {
				t.Fatalf("Curve(%d): duplicate cell %v", side, c)
			}
			seen[c] = true
		}
	}
}

func TestCurveEnergyLinear(t *testing.T) {
	// Observation 1: the Z-order curve of a sqrt(n) x sqrt(n) grid has
	// total length O(n). Verify the ratio energy/n is bounded by a small
	// constant and non-decreasing convergence.
	for _, side := range []int{2, 4, 8, 16, 32, 64, 128} {
		n := int64(side * side)
		e := CurveEnergy(side)
		if e < n-1 {
			t.Errorf("side %d: curve energy %d below n-1=%d", side, e, n-1)
		}
		if e > 3*n {
			t.Errorf("side %d: curve energy %d exceeds 3n=%d (not linear)", side, e, 3*n)
		}
	}
}

func TestPow2Pow4(t *testing.T) {
	cases := []struct {
		x          int
		pow2, pow4 bool
	}{
		{1, true, true}, {2, true, false}, {3, false, false}, {4, true, true},
		{8, true, false}, {16, true, true}, {64, true, true}, {0, false, false},
		{-4, false, false}, {1024, true, true}, {2048, true, false},
	}
	for _, c := range cases {
		if got := IsPow2(c.x); got != c.pow2 {
			t.Errorf("IsPow2(%d) = %v", c.x, got)
		}
		if got := IsPow4(c.x); got != c.pow4 {
			t.Errorf("IsPow4(%d) = %v", c.x, got)
		}
	}
}

func TestNextPow(t *testing.T) {
	if got := NextPow4(1); got != 1 {
		t.Errorf("NextPow4(1) = %d", got)
	}
	if got := NextPow4(5); got != 16 {
		t.Errorf("NextPow4(5) = %d", got)
	}
	if got := NextPow4(16); got != 16 {
		t.Errorf("NextPow4(16) = %d", got)
	}
	if got := NextPow2(5); got != 8 {
		t.Errorf("NextPow2(5) = %d", got)
	}
	if got := NextPow2(0); got != 1 {
		t.Errorf("NextPow2(0) = %d", got)
	}
}

func TestLog2(t *testing.T) {
	for _, c := range [][2]int{{1, 0}, {2, 1}, {3, 1}, {4, 2}, {1024, 10}} {
		if got := Log2(c[0]); got != c[1] {
			t.Errorf("Log2(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestSqrt(t *testing.T) {
	for _, s := range []int{0, 1, 2, 3, 7, 100} {
		if got := Sqrt(s * s); got != s {
			t.Errorf("Sqrt(%d) = %d, want %d", s*s, got, s)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Sqrt(8) did not panic")
		}
	}()
	Sqrt(8)
}

func TestFloorSqrtExact(t *testing.T) {
	// Exhaustive around small perfect squares plus the large values where
	// a float64 round-trip alone loses integer precision.
	for n := 0; n <= 1<<12; n++ {
		r := FloorSqrt(n)
		if r*r > n || (r+1)*(r+1) <= n {
			t.Fatalf("FloorSqrt(%d) = %d", n, r)
		}
	}
	for _, side := range []int{1 << 20, 1<<26 + 3, 1 << 30, 3037000499} {
		n := side * side
		if n/side != side {
			continue // overflowed int on this platform
		}
		if got := FloorSqrt(n); got != side {
			t.Errorf("FloorSqrt(%d) = %d, want %d", n, got, side)
		}
		if got := FloorSqrt(n - 1); got != side-1 {
			t.Errorf("FloorSqrt(%d) = %d, want %d", n-1, got, side-1)
		}
		if n+1 > 0 {
			if got := FloorSqrt(n + 1); got != side {
				t.Errorf("FloorSqrt(%d) = %d, want %d", n+1, got, side)
			}
		}
	}
}
