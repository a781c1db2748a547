package spatialdf

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestScanArbitraryLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 7, 16, 100, 333} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()
		}
		got, metrics := Scan(vals)
		acc := 0.0
		for i := range vals {
			acc += vals[i]
			if d := got[i] - acc; d > 1e-9 || d < -1e-9 {
				t.Fatalf("n=%d: prefix[%d] = %v, want %v", n, i, got[i], acc)
			}
		}
		if n > 1 && metrics.Energy == 0 {
			t.Errorf("n=%d: zero energy", n)
		}
	}
}

func TestScanEmpty(t *testing.T) {
	out, metrics := Scan(nil)
	if out != nil || metrics.Energy != 0 {
		t.Error("empty scan should be free")
	}
}

func TestScanWithMax(t *testing.T) {
	maxOp := func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	got, _ := ScanWith(maxOp, -1e18, vals)
	want := []float64{3, 3, 4, 4, 5, 9, 9, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("running max[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSegmentedScan(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6}
	heads := []bool{true, false, true, false, false, true}
	got, _, err := SegmentedScan(vals, heads)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 3, 7, 12, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("segmented[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestScanVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	a, am := Scan(vals)
	b, bm := ScanTree(vals)
	c, cm := ScanSequential(vals)
	for i := range vals {
		if d := a[i] - b[i]; d > 1e-9 || d < -1e-9 {
			t.Fatal("tree scan disagrees")
		}
		if d := a[i] - c[i]; d > 1e-9 || d < -1e-9 {
			t.Fatal("sequential scan disagrees")
		}
	}
	if !(am.Energy < bm.Energy) {
		t.Errorf("z-order scan energy %d should beat tree scan %d", am.Energy, bm.Energy)
	}
	if !(am.Depth < cm.Depth) {
		t.Errorf("z-order scan depth %d should beat sequential %d", am.Depth, cm.Depth)
	}
}

func TestReduceMatchesSum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 100)
	want := 0.0
	for i := range vals {
		vals[i] = rng.Float64()
		want += vals[i]
	}
	got, _ := Reduce(vals)
	if d := got - want; d > 1e-9 || d < -1e-9 {
		t.Errorf("Reduce = %v, want %v", got, want)
	}
}

func TestBroadcastCost(t *testing.T) {
	m := BroadcastCost(4096)
	if m.Energy < 4096 || m.Energy > 4*4096 {
		t.Errorf("broadcast energy %d not Theta(n)", m.Energy)
	}
	if m.Depth > 16 {
		t.Errorf("broadcast depth %d not logarithmic", m.Depth)
	}
}

func TestSortVariantsAllSort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vals := make([]float64, 150) // deliberately not a power of four
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	want := append([]float64(nil), vals...)
	sort.Float64s(want)
	for name, f := range map[string]func([]float64, ...Option) ([]float64, Metrics){
		"mergesort": Sort, "bitonic": SortBitonic, "mesh": SortMesh,
	} {
		got, _ := f(vals)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: sorted[%d] = %v, want %v", name, i, got[i], want[i])
			}
		}
	}
}

func TestSortQuick(t *testing.T) {
	f := func(raw []int16) bool {
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v)
		}
		got, _ := Sort(vals)
		want := append([]float64(nil), vals...)
		sort.Float64s(want)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSortEnergyAndDepthShapes(t *testing.T) {
	// The paper's comparative claims are asymptotic; at simulatable sizes
	// we verify the *shapes*: bitonic's normalized energy E/n^1.5 grows
	// (the Theta(log n) factor of Lemma V.4) while mergesort's falls
	// toward its constant (Theorem V.8), so their ratio converges; the
	// mesh sort has polynomial depth while mergesort stays polylog.
	rng := rand.New(rand.NewSource(5))
	norm := func(n int, f func([]float64, ...Option) ([]float64, Metrics)) float64 {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()
		}
		_, m := f(vals)
		return float64(m.Energy) / (float64(n) * math.Sqrt(float64(n)))
	}
	ms1, ms4 := norm(1024, Sort), norm(4096, Sort)
	mb1, mb4 := norm(1024, SortBitonic), norm(4096, SortBitonic)
	if ms4 >= ms1 {
		t.Errorf("mergesort E/n^1.5 should fall: %.1f -> %.1f", ms1, ms4)
	}
	if mb4 <= mb1 {
		t.Errorf("bitonic E/n^1.5 should grow: %.1f -> %.1f", mb1, mb4)
	}
	if ms4/mb4 >= ms1/mb1 {
		t.Errorf("mergesort/bitonic energy gap should shrink: %.2f -> %.2f", ms1/mb1, ms4/mb4)
	}

	n := 4096
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	_, ms := Sort(vals)
	_, mm := SortMesh(vals)
	logn := math.Log2(float64(n))
	if float64(ms.Depth) > logn*logn*logn {
		t.Errorf("mergesort depth %d exceeds log^3 n = %.0f", ms.Depth, logn*logn*logn)
	}
	if float64(mm.Depth) < 5*math.Sqrt(float64(n)) {
		t.Errorf("mesh depth %d unexpectedly below 5*sqrt(n)", mm.Depth)
	}
}

func TestSelectAndMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	for _, k := range []int{1, 50, 100, 200} {
		got, _, err := Select(vals, k, WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		if got != sorted[k-1] {
			t.Fatalf("Select(%d) = %v, want %v", k, got, sorted[k-1])
		}
	}
	med, _, err := Median(vals, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if med != sorted[99] {
		t.Errorf("Median = %v, want %v", med, sorted[99])
	}
}

func TestSelectCheaperThanSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	_, msel, err := Select(vals, 512, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	_, msort := Sort(vals)
	if msel.Energy >= msort.Energy {
		t.Errorf("selection energy %d should beat sorting %d", msel.Energy, msort.Energy)
	}
}

func TestPermuteReversal(t *testing.T) {
	n := 256
	vals := make([]float64, n)
	perm := make([]int, n)
	for i := range vals {
		vals[i] = float64(i)
		perm[i] = n - 1 - i
	}
	got, metrics, err := Permute(vals, perm)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != float64(n-1-i) {
			t.Fatalf("reversed[%d] = %v", i, got[i])
		}
	}
	// Lemma V.1: the reversal costs Omega(n^{3/2}).
	if metrics.Energy < int64(n)*16/4 {
		t.Errorf("reversal energy %d below n^{3/2}/4", metrics.Energy)
	}
}

func TestSpMVAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := Matrix{N: 16}
	for i := 0; i < 48; i++ {
		a.Entries = append(a.Entries, MatrixEntry{Row: rng.Intn(16), Col: rng.Intn(16), Val: rng.Float64()})
	}
	x := make([]float64, 16)
	for i := range x {
		x[i] = rng.Float64()
	}
	got, metrics, err := SpMV(a, x)
	if err != nil {
		t.Fatal(err)
	}
	want := a.MultiplyDense(x)
	for i := range want {
		if d := got[i] - want[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("SpMV[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if metrics.Energy == 0 {
		t.Error("SpMV reported zero energy")
	}
}

func TestSpMVPRAMAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := Matrix{N: 8}
	for i := 0; i < 20; i++ {
		a.Entries = append(a.Entries, MatrixEntry{Row: rng.Intn(8), Col: rng.Intn(8), Val: rng.Float64()})
	}
	x := make([]float64, 8)
	for i := range x {
		x[i] = rng.Float64()
	}
	got, _, err := SpMVPRAM(a, x)
	if err != nil {
		t.Fatal(err)
	}
	want := a.MultiplyDense(x)
	for i := range want {
		if d := got[i] - want[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("SpMVPRAM[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMetricsSequential(t *testing.T) {
	a := Metrics{Energy: 10, Depth: 3, Distance: 5, Messages: 2, PeakMemory: 4, MaxLinkLoad: 9}
	b := Metrics{Energy: 1, Depth: 2, Distance: 1, Messages: 1, PeakMemory: 7, MaxLinkLoad: 2}
	c := a.Sequential(b)
	if c.Energy != 11 || c.Depth != 5 || c.Distance != 6 || c.Messages != 3 || c.PeakMemory != 7 {
		t.Errorf("Sequential = %+v", c)
	}
	if c.MaxLinkLoad != 9 {
		t.Errorf("Sequential MaxLinkLoad = %d, want max(9,2)", c.MaxLinkLoad)
	}
}

func TestSelectRejectsBadRank(t *testing.T) {
	for _, k := range []int{0, -1, 3} {
		if _, _, err := Select([]float64{1, 2}, k); err == nil {
			t.Errorf("Select rank %d accepted", k)
		}
	}
	if _, _, err := Median(nil); err == nil {
		t.Error("Median of empty slice accepted")
	}
}

func TestSortIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	order, _ := SortIndices(vals)
	seen := make([]bool, len(vals))
	for i := 1; i < len(order); i++ {
		if vals[order[i]] < vals[order[i-1]] {
			t.Fatalf("SortIndices out of order at %d", i)
		}
	}
	for _, idx := range order {
		if idx < 0 || idx >= len(vals) || seen[idx] {
			t.Fatalf("SortIndices not a permutation: %v", order)
		}
		seen[idx] = true
	}
}

func TestSortIndicesStable(t *testing.T) {
	// Equal keys must keep their original relative order.
	vals := []float64{2, 1, 2, 1, 2, 1, 1, 2}
	order, _ := SortIndices(vals)
	want := []int{1, 3, 5, 6, 0, 2, 4, 7}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("SortIndices = %v, want %v", order, want)
		}
	}
}

func TestGNNForward(t *testing.T) {
	g := GNNGraph{Nodes: 8, Edges: []GraphEdge{
		{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 0, 1}, {4, 5, 2}, {6, 7, 1}, {0, 4, 1},
	}}
	features := [][]float64{
		{1, 2, 3, 4, 5, 6, 7, 8},
		{8, 7, 6, 5, 4, 3, 2, 1},
	}
	net := GNN{Layers: 2, TopK: 3}
	pooled, picked, cost, err := net.Forward(g, features)
	if err != nil {
		t.Fatal(err)
	}
	if len(pooled) != 3 || len(pooled[0]) != 2 || len(picked) != 3 {
		t.Fatalf("pooled %dx? picked %d", len(pooled), len(picked))
	}
	if cost.Energy == 0 || cost.Depth == 0 {
		t.Errorf("zero cost: %v", cost)
	}
	if _, _, _, err := (GNN{Layers: 1, TopK: 99}).Forward(g, features); err == nil {
		t.Error("bad TopK accepted")
	}
}

func TestTreefixFacade(t *testing.T) {
	// Path 0->1->2->3 with unit values: rootfix = depth+1, leaffix =
	// descendants+1.
	tr := Tree{Parent: []int{0, 0, 1, 2}}
	vals := []float64{1, 1, 1, 1}
	root, _, err := tr.RootfixSum(vals)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, 2, 3, 4} {
		if root[i] != want {
			t.Fatalf("rootfix[%d] = %v, want %v", i, root[i], want)
		}
	}
	leaf, m, err := tr.LeaffixSum(vals)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{4, 3, 2, 1} {
		if leaf[i] != want {
			t.Fatalf("leaffix[%d] = %v, want %v", i, leaf[i], want)
		}
	}
	if m.Energy == 0 {
		t.Error("treefix reported zero energy")
	}
	if _, _, err := (Tree{Parent: []int{1, 0}}).RootfixSum([]float64{1, 2}); err == nil {
		t.Error("invalid tree accepted")
	}
}

// TestSortsOrderNaN sorts an input holding NaN, both zeros and both
// infinities. Every facade sort must order it as sort.Float64s does (NaN
// first, -0 equal to +0), return a permutation of it, and place the equal
// but distinguishable values (the two zeros, the NaNs) bit for bit alike
// on the value path and on the counting-only path.
func TestSortsOrderNaN(t *testing.T) {
	nan := math.NaN()
	vals := []float64{3, nan, 1, 2, 0, nan, -1, 5, 4, 7, 6, math.Copysign(0, -1), 9, 8, 11, 10, math.Inf(1), math.Inf(-1)}
	bits := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	in := bits(vals)
	sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
	for name, f := range map[string]func([]float64, ...Option) ([]float64, Metrics){
		"mergesort": Sort, "bitonic": SortBitonic, "mesh": SortMesh,
	} {
		got, _ := f(vals)
		if !sort.Float64sAreSorted(got) {
			t.Errorf("%s: %v is not sorted", name, got)
		}
		perm := bits(got)
		sort.Slice(perm, func(i, j int) bool { return perm[i] < perm[j] })
		if !slices.Equal(perm, in) {
			t.Errorf("%s: %v is not a permutation of the input", name, got)
		}
		counting, _ := f(vals, WithBatchSends())
		if !slices.Equal(bits(counting), bits(got)) {
			t.Errorf("%s: counting-only path returned %v, value path %v", name, counting, got)
		}
	}
	idx, _ := SortIndices(vals)
	want := make([]int, len(vals))
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(i, j int) bool { return cmp.Less(vals[want[i]], vals[want[j]]) })
	if !slices.Equal(idx, want) {
		t.Errorf("SortIndices = %v, want %v", idx, want)
	}
	if counting, _ := SortIndices(vals, WithBatchSends()); !slices.Equal(counting, idx) {
		t.Errorf("SortIndices: counting-only path returned %v, value path %v", counting, idx)
	}
}
