package collectives

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/machine"
)

// placeZOrder puts vals onto the Z-order track of a square region big
// enough to hold them and returns the region.
func placeZOrder(m *machine.Machine, vals []float64) grid.Rect {
	side := grid.Pow2Side(len(vals))
	r := grid.Square(machine.Coord{}, side)
	tr := grid.ZOrder(r)
	for i, v := range vals {
		m.Set(tr.At(i), "v", v)
	}
	return r
}

func prefixSums(vals []float64) []float64 {
	out := make([]float64, len(vals))
	acc := 0.0
	for i, v := range vals {
		acc += v
		out[i] = acc
	}
	return out
}

func TestScanMatchesSequentialPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 4, 16, 64, 256, 1024} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()*10 - 5
		}
		m := machine.New()
		r := placeZOrder(m, vals)
		total := Scan(m, r, "v", Add, 0.0)
		want := prefixSums(vals)
		tr := grid.ZOrder(r)
		for i := range vals {
			if got := m.Get(tr.At(i), "v").(float64); !almostEqual(got, want[i]) {
				t.Fatalf("n=%d: prefix[%d] = %v, want %v", n, i, got, want[i])
			}
		}
		if !almostEqual(total.(float64), want[n-1]) {
			t.Errorf("n=%d: total %v, want %v", n, total, want[n-1])
		}
	}
}

func TestScanQuick(t *testing.T) {
	f := func(raw []int8) bool {
		n := 1
		for n < len(raw) || n < 4 {
			n *= 4
		}
		vals := make([]float64, n)
		for i, v := range raw {
			vals[i] = float64(v)
		}
		m := machine.New()
		r := placeZOrder(m, vals)
		Scan(m, r, "v", Add, 0.0)
		want := prefixSums(vals)
		tr := grid.ZOrder(r)
		for i := range vals {
			if !almostEqual(m.Get(tr.At(i), "v").(float64), want[i]) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestScanNonCommutativeOp(t *testing.T) {
	// Scan must respect array order for associative but non-commutative
	// operators. Use string concatenation.
	concat := func(a, b machine.Value) machine.Value { return a.(string) + b.(string) }
	m := machine.New()
	r := grid.Square(machine.Coord{}, 4)
	tr := grid.ZOrder(r)
	letters := "abcdefghijklmnop"
	for i := 0; i < 16; i++ {
		m.Set(tr.At(i), "v", string(letters[i]))
	}
	Scan(m, r, "v", concat, "")
	for i := 0; i < 16; i++ {
		want := letters[:i+1]
		if got := m.Get(tr.At(i), "v").(string); got != want {
			t.Fatalf("prefix[%d] = %q, want %q", i, got, want)
		}
	}
}

func TestScanEnergyLinear(t *testing.T) {
	// Lemma IV.3: O(n) energy. Verify energy/n is bounded by a constant
	// across two orders of magnitude.
	for _, side := range []int{4, 8, 16, 32, 64} {
		m := machine.New()
		r := grid.Square(machine.Coord{}, side)
		tr := grid.ZOrder(r)
		for i := 0; i < side*side; i++ {
			m.Set(tr.At(i), "v", 1.0)
		}
		Scan(m, r, "v", Add, 0.0)
		n := int64(side * side)
		if e := m.Metrics().Energy; e > 8*n {
			t.Errorf("side %d: scan energy %d > 8n = %d", side, e, 8*n)
		}
	}
}

func TestScanDepthLogarithmic(t *testing.T) {
	for _, side := range []int{4, 8, 16, 32, 64} {
		m := machine.New()
		r := grid.Square(machine.Coord{}, side)
		tr := grid.ZOrder(r)
		for i := 0; i < side*side; i++ {
			m.Set(tr.At(i), "v", 1.0)
		}
		Scan(m, r, "v", Add, 0.0)
		logn := 0
		for s := side * side; s > 1; s /= 2 {
			logn++
		}
		// Up-sweep + down-sweep: at most a small constant per tree level.
		if d := m.Metrics().Depth; d > int64(3*logn) {
			t.Errorf("side %d: scan depth %d > 3 log n = %d", side, d, 3*logn)
		}
	}
}

func TestScanDistanceSqrtN(t *testing.T) {
	for _, side := range []int{8, 16, 32, 64} {
		m := machine.New()
		r := grid.Square(machine.Coord{}, side)
		tr := grid.ZOrder(r)
		for i := 0; i < side*side; i++ {
			m.Set(tr.At(i), "v", 1.0)
		}
		Scan(m, r, "v", Add, 0.0)
		if d := m.Metrics().Distance; d > int64(16*side) {
			t.Errorf("side %d: scan distance %d > 16*sqrt(n)", side, d)
		}
	}
}

func TestScanMemoryConstant(t *testing.T) {
	// The per-PE working set must not grow with n (O(1) memory model).
	peak := func(side int) int {
		m := machine.New()
		r := grid.Square(machine.Coord{}, side)
		tr := grid.ZOrder(r)
		for i := 0; i < side*side; i++ {
			m.Set(tr.At(i), "v", 1.0)
		}
		Scan(m, r, "v", Add, 0.0)
		return m.Metrics().PeakMemory
	}
	// A PE can serve as summation-tree node for two heights (first
	// possible at height 5, i.e. side 32), so the peak saturates there: it
	// must be identical for side 64 and side 128 and a small constant.
	p64, p128 := peak(64), peak(128)
	if p64 != p128 {
		t.Errorf("scan peak memory still grows: side 64 -> %d, side 128 -> %d", p64, p128)
	}
	if p128 > 13 {
		t.Errorf("scan peak memory %d not a small constant", p128)
	}
}

func TestScanCleansScratchRegisters(t *testing.T) {
	m := machine.New()
	r := grid.Square(machine.Coord{}, 8)
	tr := grid.ZOrder(r)
	for i := 0; i < 64; i++ {
		m.Set(tr.At(i), "v", 1.0)
	}
	Scan(m, r, "v", Add, 0.0)
	for i := 0; i < 64; i++ {
		if regs := m.Registers(tr.At(i)); len(regs) != 1 || regs[0] != "v" {
			t.Fatalf("PE %v has leftover registers %v", tr.At(i), regs)
		}
	}
}

func TestScanTrackMatchesPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 2, 8, 64, 256} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()*4 - 2
		}
		m := machine.New()
		side := grid.Pow2Side(n)
		r := grid.Square(machine.Coord{}, side)
		tr := grid.Slice(grid.RowMajor(r), 0, n)
		for i, v := range vals {
			m.Set(tr.At(i), "v", v)
		}
		ScanTrack(m, tr, "v", Add, 0.0)
		want := prefixSums(vals)
		for i := range vals {
			if got := m.Get(tr.At(i), "v").(float64); !almostEqual(got, want[i]) {
				t.Fatalf("n=%d: ScanTrack prefix[%d] = %v, want %v", n, i, got, want[i])
			}
		}
	}
}

func TestScanTrackNonCommutative(t *testing.T) {
	concat := func(a, b machine.Value) machine.Value { return a.(string) + b.(string) }
	m := machine.New()
	r := grid.Square(machine.Coord{}, 4)
	tr := grid.RowMajor(r)
	letters := "abcdefghijklmnop"
	for i := 0; i < 16; i++ {
		m.Set(tr.At(i), "v", string(letters[i]))
	}
	ScanTrack(m, tr, "v", concat, "")
	for i := 0; i < 16; i++ {
		if got := m.Get(tr.At(i), "v").(string); got != letters[:i+1] {
			t.Fatalf("prefix[%d] = %q, want %q", i, got, letters[:i+1])
		}
	}
}

func TestScanSequentialMatchesPrefixAndCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	n := 256
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	m := machine.New()
	r := placeZOrder(m, vals)
	tr := grid.ZOrder(r)
	ScanSequential(m, tr, "v", Add)
	want := prefixSums(vals)
	for i := range vals {
		if got := m.Get(tr.At(i), "v").(float64); !almostEqual(got, want[i]) {
			t.Fatalf("prefix[%d] = %v, want %v", i, got, want[i])
		}
	}
	got := m.Metrics()
	if got.Depth != int64(n-1) {
		t.Errorf("sequential scan depth %d, want n-1", got.Depth)
	}
	if got.Energy > int64(3*n) {
		t.Errorf("sequential scan energy %d, want O(n) on Z-order track", got.Energy)
	}
}

func TestScanBaselineEnergyOrdering(t *testing.T) {
	// Section IV-C: tree scan has an extra Theta(log n) energy factor; the
	// 2-D Z-order scan and sequential scan are linear.
	run := func(side int, f func(m *machine.Machine, r grid.Rect)) int64 {
		m := machine.New()
		r := grid.Square(machine.Coord{}, side)
		tr := grid.ZOrder(r)
		for i := 0; i < side*side; i++ {
			m.Set(tr.At(i), "v", 1.0)
		}
		f(m, r)
		return m.Metrics().Energy
	}
	zscan := func(m *machine.Machine, r grid.Rect) { Scan(m, r, "v", Add, 0.0) }
	tscan := func(m *machine.Machine, r grid.Rect) { ScanTrack(m, grid.RowMajor(r), "v", Add, 0.0) }
	sscan := func(m *machine.Machine, r grid.Rect) { ScanSequential(m, grid.ZOrder(r), "v", Add) }
	// The tree/z-order energy ratio must grow with n (Theta(log n) gap).
	prev := 0.0
	for _, side := range []int{8, 16, 32, 64} {
		ratio := float64(run(side, tscan)) / float64(run(side, zscan))
		if ratio <= prev {
			t.Errorf("side %d: tree/z-order scan energy ratio %.2f did not grow (prev %.2f)", side, ratio, prev)
		}
		prev = ratio
	}
	// The sequential scan stays within a constant of the z-order scan.
	if seqE, zE := run(32, sscan), run(32, zscan); seqE > 2*zE {
		t.Errorf("sequential scan energy %d should be comparable to z-order scan %d", seqE, zE)
	}
}

func TestSegmentedScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 256
	vals := make([]float64, n)
	heads := make([]bool, n)
	for i := range vals {
		vals[i] = rng.Float64()*6 - 3
		heads[i] = rng.Intn(5) == 0
	}
	heads[0] = true
	m := machine.New()
	r := placeZOrder(m, vals)
	tr := grid.ZOrder(r)
	for i, h := range heads {
		m.Set(tr.At(i), "head", h)
	}
	SegmentedScan(m, r, "v", "head", Add, 0.0)
	acc := 0.0
	for i := range vals {
		if heads[i] {
			acc = 0
		}
		acc += vals[i]
		if got := m.Get(tr.At(i), "v").(float64); !almostEqual(got, acc) {
			t.Fatalf("segmented prefix[%d] = %v, want %v", i, got, acc)
		}
	}
}

func TestSegmentedScanQuick(t *testing.T) {
	f := func(raw []int8, headBits []bool) bool {
		n := 4
		for n < len(raw) {
			n *= 4
		}
		vals := make([]float64, n)
		heads := make([]bool, n)
		for i := range raw {
			vals[i] = float64(raw[i])
		}
		for i := range heads {
			if i < len(headBits) {
				heads[i] = headBits[i]
			}
		}
		m := machine.New()
		r := placeZOrder(m, vals)
		tr := grid.ZOrder(r)
		for i, h := range heads {
			m.Set(tr.At(i), "head", h)
		}
		SegmentedScan(m, r, "v", "head", Add, 0.0)
		acc := 0.0
		for i := range vals {
			if heads[i] || i == 0 {
				acc = 0
			}
			acc += vals[i]
			if !almostEqual(m.Get(tr.At(i), "v").(float64), acc) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSegmentedBroadcastViaFirstOp(t *testing.T) {
	// Segmented scan with the First operator copies each segment's first
	// value to the whole segment (used by SpMV's segmented broadcast).
	m := machine.New()
	n := 64
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i)
	}
	r := placeZOrder(m, vals)
	tr := grid.ZOrder(r)
	headAt := map[int]bool{0: true, 5: true, 17: true, 40: true}
	for i := 0; i < n; i++ {
		m.Set(tr.At(i), "head", headAt[i])
	}
	SegmentedScan(m, r, "v", "head", First, 0.0)
	cur := 0.0
	for i := 0; i < n; i++ {
		if headAt[i] {
			cur = float64(i)
		}
		if got := m.Get(tr.At(i), "v").(float64); got != cur {
			t.Fatalf("segmented broadcast[%d] = %v, want %v", i, got, cur)
		}
	}
}

func TestSegmentedOpAssociative(t *testing.T) {
	// Property: the segmented operator is associative for arbitrary
	// values/flags.
	op := Segmented(Add)
	f := func(a, b, c int8, ha, hb, hc bool) bool {
		x := Seg{Val: float64(a), Head: ha}
		y := Seg{Val: float64(b), Head: hb}
		z := Seg{Val: float64(c), Head: hc}
		l := op(op(x, y), z).(Seg)
		r := op(x, op(y, z)).(Seg)
		return l.Head == r.Head && almostEqual(l.Val.(float64), r.Val.(float64))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSequentialScanHilbertVsZOrderLayout(t *testing.T) {
	// Layout ablation: the sequential scan over the Hilbert track costs
	// exactly n-1 energy (unit steps); over the Z-order track it pays the
	// curve's constant (~5n/3). Both compute the same prefix sums.
	rng := rand.New(rand.NewSource(55))
	side := 16
	n := side * side
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	run := func(tr grid.Track) (last float64, energy int64) {
		m := machine.New()
		for i := 0; i < n; i++ {
			m.Set(tr.At(i), "v", vals[i])
		}
		ScanSequential(m, tr, "v", Add)
		return m.Get(tr.At(n-1), "v").(float64), m.Metrics().Energy
	}
	r := grid.Square(machine.Coord{}, side)
	hLast, hE := run(grid.Hilbert(r))
	zLast, zE := run(grid.ZOrder(r))
	if !almostEqual(hLast, zLast) {
		t.Errorf("layouts disagree: %v vs %v", hLast, zLast)
	}
	if hE != int64(n-1) {
		t.Errorf("hilbert sequential scan energy %d, want n-1 = %d", hE, n-1)
	}
	if zE <= hE {
		t.Errorf("z-order sequential energy %d not above hilbert %d", zE, hE)
	}
}
