package sortnet

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/order"
)

func runOnTrack(t *testing.T, nw Network, vals []float64) []float64 {
	t.Helper()
	side := grid.Pow2Side(len(vals))
	m := machine.New()
	tr := grid.Slice(grid.RowMajor(grid.Square(machine.Coord{}, side)), 0, len(vals))
	for i, v := range vals {
		m.Set(tr.At(i), "v", v)
	}
	Run(m, nw, tr, "v", order.Float64)
	out := make([]float64, len(vals))
	for i := range out {
		out[i] = m.Get(tr.At(i), "v").(float64)
	}
	return out
}

func isSorted(vals []float64) bool {
	return sort.Float64sAreSorted(vals)
}

func TestBitonicSortsRandomInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 4, 16, 64, 256} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()
		}
		got := runOnTrack(t, Bitonic(n), vals)
		if !isSorted(got) {
			t.Errorf("n=%d: bitonic output not sorted", n)
		}
	}
}

func TestBitonicIsPermutation(t *testing.T) {
	f := func(raw []int8) bool {
		n := 1
		for n < len(raw) || n < 2 {
			n *= 2
		}
		vals := make([]float64, n)
		for i, v := range raw {
			vals[i] = float64(v)
		}
		got := runOnTrack(t, Bitonic(n), vals)
		want := append([]float64(nil), vals...)
		sort.Float64s(want)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBitonicNetworkShape(t *testing.T) {
	for _, n := range []int{2, 8, 64} {
		nw := Bitonic(n)
		log := 0
		for s := n; s > 1; s /= 2 {
			log++
		}
		if want := log * (log + 1) / 2; nw.Depth() != want {
			t.Errorf("n=%d: depth %d, want %d", n, nw.Depth(), want)
		}
		if want := n / 2 * nw.Depth(); nw.Comparators() != want {
			t.Errorf("n=%d: comparators %d, want %d", n, nw.Comparators(), want)
		}
		// Wires must pair disjointly within a level.
		for li, level := range nw {
			used := make(map[int]bool)
			for _, c := range level {
				if c.Lo >= c.Hi || used[c.Lo] || used[c.Hi] {
					t.Fatalf("n=%d level %d: bad comparator %+v", n, li, c)
				}
				used[c.Lo], used[c.Hi] = true, true
			}
		}
	}
}

func TestBitonicMergeMergesSortedHalves(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 64
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	// Bitonic input: first half ascending, second half descending.
	sort.Float64s(vals[:n/2])
	sort.Sort(sort.Reverse(sort.Float64Slice(vals[n/2:])))
	got := runOnTrack(t, BitonicMerge(n), vals)
	if !isSorted(got) {
		t.Error("bitonic merge failed on bitonic input")
	}
}

func TestOddEvenTransposition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 5, 16, 33} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()
		}
		got := runOnTrack(t, OddEvenTransposition(n), vals)
		if !isSorted(got) {
			t.Errorf("n=%d: odd-even transposition failed", n)
		}
	}
}

func TestRunIsDataOblivious(t *testing.T) {
	// The message pattern must depend only on n, not on values: the
	// total energy for two different inputs of the same size is equal.
	energy := func(seed int64) int64 {
		rng := rand.New(rand.NewSource(seed))
		m := machine.New()
		tr := grid.RowMajor(grid.Square(machine.Coord{}, 8))
		for i := 0; i < 64; i++ {
			m.Set(tr.At(i), "v", rng.Float64())
		}
		Run(m, Bitonic(64), tr, "v", order.Float64)
		return m.Metrics().Energy
	}
	if e1, e2 := energy(1), energy(2); e1 != e2 {
		t.Errorf("bitonic energy depends on data: %d vs %d", e1, e2)
	}
}

func TestBitonicDepthOnGridIsLogSquared(t *testing.T) {
	// Lemma V.4: Theta(log^2 n) depth. Each network level contributes
	// exactly one message round (+1 for the local compare's reply), so
	// measured depth is within a small constant of levels.
	for _, side := range []int{4, 8, 16} {
		n := side * side
		m := machine.New()
		tr := grid.RowMajor(grid.Square(machine.Coord{}, side))
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < n; i++ {
			m.Set(tr.At(i), "v", rng.Float64())
		}
		Sort(m, tr, "v", n, order.Float64)
		levels := int64(Bitonic(n).Depth())
		d := m.Metrics().Depth
		if d < levels || d > 2*levels {
			t.Errorf("side %d: depth %d outside [%d, %d]", side, d, levels, 2*levels)
		}
	}
}

func TestBitonicEnergySuperlinearByLogFactor(t *testing.T) {
	// Lemma V.4 on a square grid: Theta(n^{3/2} log n) energy. Check that
	// energy / n^{3/2} grows (the log factor) across sides.
	prev := 0.0
	for _, side := range []int{4, 8, 16, 32} {
		n := side * side
		m := machine.New()
		tr := grid.RowMajor(grid.Square(machine.Coord{}, side))
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < n; i++ {
			m.Set(tr.At(i), "v", rng.Float64())
		}
		Sort(m, tr, "v", n, order.Float64)
		norm := float64(m.Metrics().Energy) / (float64(n) * float64(side))
		if norm <= prev {
			t.Errorf("side %d: energy/n^1.5 = %.3f did not grow (prev %.3f)", side, norm, prev)
		}
		prev = norm
	}
}

func TestShearsortSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, side := range []int{2, 4, 8} {
		n := side * side
		m := machine.New()
		r := grid.Square(machine.Coord{}, side)
		tr := grid.RowMajor(r)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()
			m.Set(tr.At(i), "v", vals[i])
		}
		Shearsort(m, r, "v", order.Float64)
		got := make([]float64, n)
		for i := range got {
			got[i] = m.Get(tr.At(i), "v").(float64)
		}
		want := append([]float64(nil), vals...)
		sort.Float64s(want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("side %d: shearsort[%d] = %v, want %v", side, i, got[i], want[i])
			}
		}
	}
}

func TestShearsortDepthPolynomial(t *testing.T) {
	// The mesh baseline's depth grows like sqrt(n) log n — verify it is
	// at least side (polynomially deep), in contrast to the network sorts.
	for _, side := range []int{8, 16} {
		m := machine.New()
		r := grid.Square(machine.Coord{}, side)
		tr := grid.RowMajor(r)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < side*side; i++ {
			m.Set(tr.At(i), "v", rng.Float64())
		}
		Shearsort(m, r, "v", order.Float64)
		if d := m.Metrics().Depth; d < int64(side) {
			t.Errorf("side %d: shearsort depth %d unexpectedly below side", side, d)
		}
	}
}

func TestSortDescendingComparator(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	got := runOnTrack(t, Bitonic(8), vals)
	_ = got
	m := machine.New()
	tr := grid.Slice(grid.RowMajor(grid.Square(machine.Coord{}, 4)), 0, 8)
	for i, v := range vals {
		m.Set(tr.At(i), "v", v)
	}
	Run(m, Bitonic(8), tr, "v", order.Reverse(order.Float64))
	prev := m.Get(tr.At(0), "v").(float64)
	for i := 1; i < 8; i++ {
		cur := m.Get(tr.At(i), "v").(float64)
		if cur > prev {
			t.Fatal("descending sort produced ascending pair")
		}
		prev = cur
	}
}

func TestOddEvenMergeSortSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{2, 4, 16, 64, 256} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()
		}
		got := runOnTrack(t, OddEvenMergeSort(n), vals)
		if !isSorted(got) {
			t.Errorf("n=%d: odd-even mergesort failed", n)
		}
	}
}

func TestOddEvenMergeSortIsPermutation(t *testing.T) {
	f := func(raw []int8) bool {
		n := 1
		for n < len(raw) || n < 2 {
			n *= 2
		}
		vals := make([]float64, n)
		for i, v := range raw {
			vals[i] = float64(v)
		}
		got := runOnTrack(t, OddEvenMergeSort(n), vals)
		want := append([]float64(nil), vals...)
		sort.Float64s(want)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestOddEvenMergeSortFewerComparators(t *testing.T) {
	// Batcher's odd-even network beats the bitonic network on comparator
	// count at the same O(log^2 n) depth.
	for _, n := range []int{64, 256, 1024} {
		oe, bi := OddEvenMergeSort(n), Bitonic(n)
		if oe.Comparators() >= bi.Comparators() {
			t.Errorf("n=%d: odd-even %d comparators not below bitonic %d", n, oe.Comparators(), bi.Comparators())
		}
	}
}

func TestNetworkOnZOrderLayoutAblation(t *testing.T) {
	// Layout ablation: mapping the bitonic wires along the Z-order curve
	// instead of row-major changes only constants — both remain
	// Theta(n^{3/2} log n) — but Z-order keeps recursive halves in compact
	// blocks and measures lower energy.
	rng := rand.New(rand.NewSource(9))
	side := 16
	n := side * side
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	run := func(tr grid.Track) int64 {
		m := machine.New()
		for i := 0; i < n; i++ {
			m.Set(tr.At(i), "v", vals[i])
		}
		Run(m, Bitonic(n), tr, "v", order.Float64)
		for i := 1; i < n; i++ {
			if m.Get(tr.At(i), "v").(float64) < m.Get(tr.At(i-1), "v").(float64) {
				t.Fatal("not sorted")
			}
		}
		return m.Metrics().Energy
	}
	r := grid.Square(machine.Coord{}, side)
	rowE := run(grid.RowMajor(r))
	zE := run(grid.ZOrder(r))
	if zE >= rowE {
		t.Errorf("z-order-mapped bitonic energy %d not below row-major %d", zE, rowE)
	}
}

// TestCountingPathMatchesValuePathWithTies runs every network family on
// inputs full of equal but distinguishable values — KV pairs compared by
// key only, and both zeros — along the value path and the counting-only
// path, and requires the same register payloads (so the same place for
// every tied value), the same metrics but PeakMemory, per-PE clocks,
// touched PEs and link loads, on every backend kind with and without
// congestion tracking. The 4096-wire bitonic network has levels of 2048
// comparators, more than the counting path applies at a time.
func TestCountingPathMatchesValuePathWithTies(t *testing.T) {
	networks := []struct {
		name string
		side int
		run  func(m *machine.Machine, r grid.Rect, less order.Less)
	}{
		{"bitonic", 8, func(m *machine.Machine, r grid.Rect, less order.Less) {
			Sort(m, grid.RowMajor(r), "v", r.Size(), less)
		}},
		{"odd-even", 8, func(m *machine.Machine, r grid.Rect, less order.Less) {
			Run(m, OddEvenMergeSort(r.Size()), grid.ZOrder(r), "v", less)
		}},
		{"transposition", 8, func(m *machine.Machine, r grid.Rect, less order.Less) {
			Run(m, OddEvenTransposition(r.Size()), grid.RowMajor(r), "v", less)
		}},
		{"shearsort", 8, func(m *machine.Machine, r grid.Rect, less order.Less) { Shearsort(m, r, "v", less) }},
		{"bitonic-4096", 64, func(m *machine.Machine, r grid.Rect, less order.Less) {
			Sort(m, grid.RowMajor(r), "v", r.Size(), less)
		}},
	}
	byKey := func(a, b machine.Value) bool { return a.(order.KV).Key < b.(order.KV).Key }
	inputs := []struct {
		name string
		less order.Less
		val  func(rng *rand.Rand, i int) machine.Value
	}{
		{"kv-by-key", byKey, func(rng *rand.Rand, i int) machine.Value {
			return order.KV{Key: int64(rng.Intn(4)), Seq: int64(i)}
		}},
		{"zeros", order.Float64, func(rng *rand.Rand, i int) machine.Value {
			return []float64{0, math.Copysign(0, -1), 1, -1}[rng.Intn(4)]
		}},
	}
	run := func(spec string, cong, counting bool, r grid.Rect, in []machine.Value, less order.Less, network func(*machine.Machine, grid.Rect, order.Less)) string {
		bk, err := machine.ParseBackend(spec)
		if err != nil {
			t.Fatal(err)
		}
		m := machine.New()
		m.SetBackend(bk)
		m.SetBatchSends(counting)
		if cong {
			m.EnableCongestionTracking()
		}
		grid.Place(m, grid.RowMajor(r), "v", in, nil)
		network(m, r, less)
		met := m.Metrics()
		met.PeakMemory = 0
		var b strings.Builder
		fmt.Fprintf(&b, "%+v touched=%d links max=%d total=%d\n", met, m.TouchedPEs(), m.MaxCongestion(), m.TotalLinkTraversals())
		for row := 0; row < r.H+2; row++ {
			for col := 0; col < r.W+3; col++ {
				c := machine.Coord{Row: row, Col: col}
				d, x := m.Clock(c)
				v, _ := m.Lookup(c, "v")
				fmt.Fprintf(&b, "%d/%d/%v ", d, x, v)
			}
		}
		return b.String()
	}
	for _, nw := range networks {
		r := grid.Square(machine.Coord{Row: 1, Col: 2}, nw.side)
		for _, in := range inputs {
			rng := rand.New(rand.NewSource(12))
			vals := make([]machine.Value, r.Size())
			for i := range vals {
				vals[i] = in.val(rng, i)
			}
			for _, spec := range []string{"ideal", "mesh:5x3:2", "torus:4x4:3"} {
				for _, cong := range []bool{false, true} {
					value := run(spec, cong, false, r, vals, in.less, nw.run)
					if counting := run(spec, cong, true, r, vals, in.less, nw.run); counting != value {
						t.Errorf("%s cong=%v %s %s: the counting path differs from the value path", spec, cong, nw.name, in.name)
					}
				}
			}
		}
	}
}

// TestLanesMatchOneShard runs every network family on the counting path
// at 2, 3 and 4 shards, so that runManyCounting charges from that many
// lanes, and requires every Metrics field, the largest link load, every
// wire's clock and the output register to equal the 1-shard run's: on
// inputs with ties, both zeros and NaN, on the ideal grid, a folded mesh,
// a torus and under congestion tracking (where the kernel keeps one lane).
// The 4096-wire bitonic network has levels that run block by block and
// levels split by comparator range; the transposition network runs fused
// over tracks of uneven lengths, every other one descending; the odd-even
// mergesort has no blocks, so all its levels are split by range.
func TestLanesMatchOneShard(t *testing.T) {
	setLaneMin(t, 1)
	uneven := func(r grid.Rect, less order.Less) []TrackRun {
		var tracks []TrackRun
		row := grid.RowMajor(r)
		for i, from := 0, 0; from < r.Size(); i++ {
			n := min(8+5*(i%4), r.Size()-from)
			tr := TrackRun{Track: grid.Slice(row, from, n), Less: less}
			if i%2 == 1 {
				tr.Less = order.Reverse(less)
			}
			tracks = append(tracks, tr)
			from += n
		}
		return tracks
	}
	networks := []struct {
		name string
		side int
		run  func(m *machine.Machine, r grid.Rect)
	}{
		{"bitonic-4096", 64, func(m *machine.Machine, r grid.Rect) {
			Sort(m, grid.RowMajor(r), "v", r.Size(), order.Float64)
		}},
		{"shearsort", 16, func(m *machine.Machine, r grid.Rect) { Shearsort(m, r, "v", order.Float64) }},
		{"odd-even", 16, func(m *machine.Machine, r grid.Rect) {
			Run(m, OddEvenMergeSort(r.Size()), grid.ZOrder(r), "v", order.Float64)
		}},
		{"transposition", 16, func(m *machine.Machine, r grid.Rect) {
			RunMany(m, OddEvenTranspositionLevels(8), uneven(r, order.Float64), "v")
		}},
	}
	run := func(spec string, cong bool, shards int, r grid.Rect, in []machine.Value, network func(*machine.Machine, grid.Rect)) string {
		bk, err := machine.ParseBackend(spec)
		if err != nil {
			t.Fatal(err)
		}
		m := machine.New()
		m.SetBackend(bk)
		m.SetBatchSends(true)
		m.SetShards(shards)
		if cong {
			m.EnableCongestionTracking()
		}
		grid.Place(m, grid.RowMajor(r), "v", in, nil)
		network(m, r)
		var b strings.Builder
		fmt.Fprintf(&b, "%+v touched=%d links max=%d total=%d\n", m.Metrics(), m.TouchedPEs(), m.MaxCongestion(), m.TotalLinkTraversals())
		for i := 0; i < r.Size(); i++ {
			c := grid.RowMajor(r).At(i)
			d, x := m.Clock(c)
			fmt.Fprintf(&b, "%d/%d/%#x ", d, x, math.Float64bits(m.Get(c, "v").(float64)))
		}
		return b.String()
	}
	specials := []float64{math.NaN(), 0, math.Copysign(0, -1), 1, -1, 2.5}
	for _, nw := range networks {
		r := grid.Square(machine.Coord{Row: 1, Col: 2}, nw.side)
		rng := rand.New(rand.NewSource(21))
		in := make([]machine.Value, r.Size())
		for i := range in {
			in[i] = specials[rng.Intn(len(specials))]
		}
		for _, bk := range []struct {
			spec string
			cong bool
		}{{"ideal", false}, {"mesh:5x3:2", false}, {"torus:4x4:3", false}, {"ideal", true}} {
			want := run(bk.spec, bk.cong, 1, r, in, nw.run)
			for _, shards := range []int{2, 3, 4} {
				if got := run(bk.spec, bk.cong, shards, r, in, nw.run); got != want {
					t.Errorf("%s %s cong=%v shards=%d: differs from the 1-shard run", nw.name, bk.spec, bk.cong, shards)
				}
			}
		}
	}
}
