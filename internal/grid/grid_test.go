package grid

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/machine"
	"repro/internal/zorder"
)

func TestRectBasics(t *testing.T) {
	r := Rect{Origin: machine.Coord{Row: 2, Col: 3}, H: 4, W: 8}
	if r.Size() != 32 {
		t.Errorf("Size = %d", r.Size())
	}
	if r.Diameter() != 10 {
		t.Errorf("Diameter = %d", r.Diameter())
	}
	if !r.Contains(machine.Coord{Row: 5, Col: 10}) {
		t.Error("Contains missed interior cell")
	}
	if r.Contains(machine.Coord{Row: 6, Col: 3}) {
		t.Error("Contains accepted exterior cell")
	}
	if got := r.At(1, 2); got != (machine.Coord{Row: 3, Col: 5}) {
		t.Errorf("At(1,2) = %v", got)
	}
}

func TestRectEmpty(t *testing.T) {
	// Regression: Diameter() of an empty rect used to return −2.
	cases := []Rect{
		{},            // H=0, W=0
		{H: 0, W: 5},  // empty row band
		{H: 3, W: 0},  // empty column band
		{H: 1, W: 1},  // single PE: degenerate but non-empty
		{H: -1, W: 4}, // negative extents are empty too
		{Origin: machine.Coord{Row: 7, Col: -3}, H: 0, W: 0},
	}
	for _, r := range cases {
		if d := r.Diameter(); (r.H <= 0 || r.W <= 0) && d != 0 {
			t.Errorf("Diameter(%v) = %d, want 0 for empty rect", r, d)
		} else if d < 0 {
			t.Errorf("Diameter(%v) = %d is negative", r, d)
		}
		if r.H <= 0 || r.W <= 0 {
			if s := r.Size(); s > 0 {
				t.Errorf("Size(%v) = %d, want <= 0 for empty rect", r, s)
			}
			if r.Contains(r.Origin) {
				t.Errorf("Contains(%v) accepted origin of empty rect", r)
			}
		}
	}
	if d := (Rect{H: 1, W: 1}).Diameter(); d != 0 {
		t.Errorf("Diameter of 1x1 = %d, want 0", d)
	}
}

func TestSquareFor(t *testing.T) {
	r := SquareFor(machine.Coord{}, 64)
	if r.H != 8 || r.W != 8 {
		t.Errorf("SquareFor(64) = %v", r)
	}
	defer func() {
		if recover() == nil {
			t.Error("SquareFor(8) should panic (not a power of 4)")
		}
	}()
	SquareFor(machine.Coord{}, 8)
}

func TestQuadrantsZOrder(t *testing.T) {
	r := Square(machine.Coord{}, 4)
	q := r.Quadrants()
	wantOrigins := []machine.Coord{{Row: 0, Col: 0}, {Row: 0, Col: 2}, {Row: 2, Col: 0}, {Row: 2, Col: 2}}
	for i, w := range wantOrigins {
		if q[i].Origin != w || q[i].H != 2 || q[i].W != 2 {
			t.Errorf("quadrant %d = %v, want origin %v", i, q[i], w)
		}
	}
}

func TestSplitFourProperties(t *testing.T) {
	cases := []Rect{
		Square(machine.Coord{}, 8),
		{Origin: machine.Coord{Row: 1, Col: 1}, H: 4, W: 8},
		{Origin: machine.Coord{}, H: 8, W: 4},
	}
	for _, r := range cases {
		children := r.SplitFour()
		seen := make(map[machine.Coord]bool)
		for _, ch := range children {
			if ch.Size() != r.Size()/4 {
				t.Errorf("%v child %v: size %d != parent/4", r, ch, ch.Size())
			}
			if 2*ch.Diameter() > r.Diameter()+2 {
				t.Errorf("%v child %v: diameter %d not halved from %d", r, ch, ch.Diameter(), r.Diameter())
			}
			ar := ch.H / ch.W
			if ch.W > ch.H {
				ar = ch.W / ch.H
			}
			if ar != 1 && ar != 2 {
				t.Errorf("%v child %v: aspect ratio %d", r, ch, ar)
			}
			for row := 0; row < ch.H; row++ {
				for col := 0; col < ch.W; col++ {
					c := ch.At(row, col)
					if seen[c] {
						t.Fatalf("%v: cell %v covered twice", r, c)
					}
					if !r.Contains(c) {
						t.Fatalf("%v: child cell %v outside parent", r, c)
					}
					seen[c] = true
				}
			}
		}
		if len(seen) != r.Size() {
			t.Errorf("%v: children cover %d of %d cells", r, len(seen), r.Size())
		}
	}
}

func TestSplitFourRejectsBadAspect(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SplitFour on 2x8 should panic")
		}
	}()
	(Rect{H: 2, W: 8}).SplitFour()
}

func TestHalves(t *testing.T) {
	r := Square(machine.Coord{}, 8)
	top, bot := r.TopHalf(), r.BottomHalf()
	if top.H != 4 || top.W != 8 || bot.H != 4 || bot.W != 8 {
		t.Errorf("halves %v %v", top, bot)
	}
	if bot.Origin.Row != 4 {
		t.Errorf("bottom origin %v", bot.Origin)
	}
}

func TestScratchPlacement(t *testing.T) {
	r := Square(machine.Coord{Row: 5, Col: 5}, 4)
	right := r.RightOf(2, 2)
	if right.Origin != (machine.Coord{Row: 5, Col: 10}) {
		t.Errorf("RightOf origin %v", right.Origin)
	}
	below := r.Below(3, 3)
	if below.Origin != (machine.Coord{Row: 10, Col: 5}) {
		t.Errorf("Below origin %v", below.Origin)
	}
}

func TestRowMajorTrack(t *testing.T) {
	r := Rect{Origin: machine.Coord{Row: 1, Col: 1}, H: 2, W: 3}
	tr := RowMajor(r)
	want := []machine.Coord{
		{Row: 1, Col: 1}, {Row: 1, Col: 2}, {Row: 1, Col: 3},
		{Row: 2, Col: 1}, {Row: 2, Col: 2}, {Row: 2, Col: 3},
	}
	if tr.Len() != len(want) {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i, w := range want {
		if got := tr.At(i); got != w {
			t.Errorf("At(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestZOrderTrack(t *testing.T) {
	r := Square(machine.Coord{Row: 10, Col: 20}, 2)
	tr := ZOrder(r)
	want := []machine.Coord{
		{Row: 10, Col: 20}, {Row: 10, Col: 21}, {Row: 11, Col: 20}, {Row: 11, Col: 21},
	}
	for i, w := range want {
		if got := tr.At(i); got != w {
			t.Errorf("At(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestTrackCoverage(t *testing.T) {
	// Every track visits each region cell exactly once.
	r := Square(machine.Coord{Row: -3, Col: 7}, 8)
	for name, tr := range map[string]Track{"rowmajor": RowMajor(r), "zorder": ZOrder(r)} {
		seen := make(map[machine.Coord]bool)
		for i := 0; i < tr.Len(); i++ {
			c := tr.At(i)
			if seen[c] || !r.Contains(c) {
				t.Fatalf("%s: bad cell %v at index %d", name, c, i)
			}
			seen[c] = true
		}
		if len(seen) != r.Size() {
			t.Errorf("%s: covered %d cells", name, len(seen))
		}
	}
}

func TestSliceAndConcat(t *testing.T) {
	r := Square(machine.Coord{}, 4)
	tr := RowMajor(r)
	s1 := Slice(tr, 2, 5)
	if s1.Len() != 5 || s1.At(0) != tr.At(2) || s1.At(4) != tr.At(6) {
		t.Error("Slice misbehaves")
	}
	s2 := Slice(s1, 1, 3) // nested slices compose
	if s2.At(0) != tr.At(3) {
		t.Error("nested Slice misbehaves")
	}
	c := Concat(Slice(tr, 0, 2), Slice(tr, 8, 2))
	if c.Len() != 4 || c.At(1) != tr.At(1) || c.At(2) != tr.At(8) || c.At(3) != tr.At(9) {
		t.Error("Concat misbehaves")
	}
}

func TestSliceBounds(t *testing.T) {
	tr := RowMajor(Square(machine.Coord{}, 2))
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Slice should panic")
		}
	}()
	Slice(tr, 2, 3)
}

func TestPlaceExtract(t *testing.T) {
	m := machine.New()
	tr := RowMajor(Square(machine.Coord{}, 4))
	vals := make([]machine.Value, 16)
	for i := range vals {
		vals[i] = float64(i) * 1.5
	}
	Place(m, tr, "v", vals)
	got := Extract(m, tr, "v", 16)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("Extract[%d] = %v", i, got[i])
		}
	}
	if m.Metrics().Energy != 0 {
		t.Error("Place/Extract must be free")
	}
	Clear(m, tr, "v", 16)
	if m.Has(tr.At(0), "v") {
		t.Error("Clear left registers live")
	}
}

func TestRoutePermutesInPlace(t *testing.T) {
	m := machine.New()
	tr := RowMajor(Square(machine.Coord{}, 4))
	n := 16
	vals := make([]machine.Value, n)
	for i := range vals {
		vals[i] = i
	}
	Place(m, tr, "v", vals)
	perm := rand.New(rand.NewSource(1)).Perm(n)
	Route(m, tr, "v", tr, "v", perm)
	got := Extract(m, tr, "v", n)
	for i, j := range perm {
		if got[j] != i {
			t.Fatalf("element %d did not arrive at %d: got %v", i, j, got[j])
		}
	}
	if d := m.Metrics().Depth; d != 1 {
		t.Errorf("route depth = %d, want 1 (all messages independent)", d)
	}
}

func TestRouteEnergyIsSumOfDistances(t *testing.T) {
	m := machine.New()
	r := Square(machine.Coord{}, 2)
	tr := RowMajor(r)
	Place(m, tr, "v", []machine.Value{0, 1, 2, 3})
	// Reversal permutation: 0<->3 distance 2, 1<->2 distance 2.
	Route(m, tr, "v", tr, "v", []int{3, 2, 1, 0})
	if e := m.Metrics().Energy; e != 8 {
		t.Errorf("reversal energy = %d, want 8", e)
	}
}

func TestIdentity(t *testing.T) {
	p := Identity(4)
	for i, v := range p {
		if v != i {
			t.Fatalf("Identity[%d] = %d", i, v)
		}
	}
}

func TestHilbertTrackCoverage(t *testing.T) {
	r := Square(machine.Coord{Row: 3, Col: -2}, 8)
	tr := Hilbert(r)
	seen := make(map[machine.Coord]bool)
	prev := tr.At(0)
	for i := 0; i < tr.Len(); i++ {
		c := tr.At(i)
		if seen[c] || !r.Contains(c) {
			t.Fatalf("hilbert: bad cell %v at %d", c, i)
		}
		seen[c] = true
		if i > 0 && machine.Dist(prev, c) != 1 {
			t.Fatalf("hilbert: non-unit step at %d", i)
		}
		prev = c
	}
	if len(seen) != r.Size() {
		t.Errorf("hilbert covered %d cells", len(seen))
	}
}

func TestHilbertRejectsNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Hilbert on non-square should panic")
		}
	}()
	Hilbert(Rect{H: 2, W: 4})
}

// TestPow2Side pins Pow2Side to each form the padded square side was once
// computed in: a doubling loop, the power of two above a float ceiling
// square root, above an integer ceiling square root, and above one more
// than the floor square root of n-1.
func TestPow2Side(t *testing.T) {
	floorSqrt := func(n int) int {
		r := int(math.Sqrt(float64(n)))
		for r*r > n {
			r--
		}
		for (r+1)*(r+1) <= n {
			r++
		}
		return r
	}
	ceilSqrt := func(n int) int {
		r := floorSqrt(n)
		if r*r < n {
			r++
		}
		return r
	}
	forms := map[string]func(n int) int{
		"doubling": func(n int) int {
			side := 1
			for side*side < n {
				side *= 2
			}
			return side
		},
		"float-ceil-sqrt": func(n int) int { return zorder.NextPow2(int(math.Ceil(math.Sqrt(float64(n))))) },
		"int-ceil-sqrt":   func(n int) int { return zorder.NextPow2(ceilSqrt(n)) },
		"floor-sqrt-n-1":  func(n int) int { return zorder.NextPow2(floorSqrt(max(n-1, 0)) + 1) },
	}
	ns := []int{1 << 30, 1<<30 + 1, 1<<40 - 1, 1 << 40, 1<<40 + 1, 3 << 41, 1<<50 + 12345}
	for n := 0; n <= 1<<16; n++ {
		ns = append(ns, n)
	}
	for _, n := range ns {
		got := Pow2Side(n)
		for name, form := range forms {
			if want := form(n); got != want {
				t.Fatalf("Pow2Side(%d) = %d, %s form gives %d", n, got, name, want)
			}
		}
	}
	for n, want := range map[int]int{0: 1, 1: 1, 2: 2, 4: 2, 5: 4, 16: 4, 17: 8, 1 << 40: 1 << 20} {
		if got := Pow2Side(n); got != want {
			t.Errorf("Pow2Side(%d) = %d, want %d", n, got, want)
		}
	}
}
