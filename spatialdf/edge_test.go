package spatialdf

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/machine"
	"repro/internal/trace"
)

// Single-element inputs are the smallest grid the model admits; every
// operation must handle them without special-casing by the caller.
func TestSingleElementOps(t *testing.T) {
	if out, _ := Scan([]float64{5}); len(out) != 1 || out[0] != 5 {
		t.Errorf("Scan([5]) = %v", out)
	}
	if out, _ := Sort([]float64{5}); len(out) != 1 || out[0] != 5 {
		t.Errorf("Sort([5]) = %v", out)
	}
	if got, _ := Reduce([]float64{5}); got != 5 {
		t.Errorf("Reduce([5]) = %v", got)
	}
	if v, _, err := Select([]float64{5}, 1); err != nil || v != 5 {
		t.Errorf("Select([5], 1) = %v, %v", v, err)
	}
	if v, _, err := Median([]float64{5}); err != nil || v != 5 {
		t.Errorf("Median([5]) = %v, %v", v, err)
	}
	if out, _, err := SegmentedScan([]float64{5}, []bool{true}); err != nil || len(out) != 1 || out[0] != 5 {
		t.Errorf("SegmentedScan([5]) = %v, %v", out, err)
	}
	if out, _, err := Permute([]float64{5}, []int{0}); err != nil || len(out) != 1 || out[0] != 5 {
		t.Errorf("Permute([5]) = %v, %v", out, err)
	}
}

// Lengths straddling the internal power-of-four padding boundaries (16 and
// 64) must give the same results as any other length.
func TestPaddingBoundaryLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{15, 16, 17, 63, 64, 65} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		gotSorted, _ := Sort(vals)
		want := append([]float64(nil), vals...)
		sort.Float64s(want)
		for i := range want {
			if gotSorted[i] != want[i] {
				t.Fatalf("n=%d: sorted[%d] = %v, want %v", n, i, gotSorted[i], want[i])
			}
		}
		gotScan, _ := Scan(vals)
		acc := 0.0
		for i := range vals {
			acc += vals[i]
			if d := gotScan[i] - acc; d > 1e-9 || d < -1e-9 {
				t.Fatalf("n=%d: prefix[%d] = %v, want %v", n, i, gotScan[i], acc)
			}
		}
	}
}

// Padding an input up to the next power of four must not change the
// PeakMemory class: the padded run uses the same O(1) per-PE registers.
func TestPaddingKeepsPeakMemoryClass(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	peak := func(n int) int {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()
		}
		_, m := Sort(vals)
		return m.PeakMemory
	}
	exact, padded := peak(64), peak(65) // 65 pads to 256
	if padded > 2*exact {
		t.Errorf("padding blew up PeakMemory: n=64 peak %d, n=65 peak %d", exact, padded)
	}
	_, sExact := Scan(make([]float64, 16))
	_, sPadded := Scan(make([]float64, 17)) // pads to 64
	if sPadded.PeakMemory > 2*sExact.PeakMemory {
		t.Errorf("scan padding blew up PeakMemory: %d -> %d", sExact.PeakMemory, sPadded.PeakMemory)
	}
}

// All-equal keys stress the merge and partition paths (every comparison
// ties).
func TestSortAllEqualKeys(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = 3.25
	}
	got, _ := Sort(vals)
	for i, v := range got {
		if v != 3.25 {
			t.Fatalf("sorted[%d] = %v", i, v)
		}
	}
	if v, _, err := Select(vals, 50); err != nil || v != 3.25 {
		t.Errorf("Select over equal keys = %v, %v", v, err)
	}
}

// Length-1 segments (consecutive heads) and one whole-array segment are the
// boundary shapes of the segmented scan; an implicit head at element 0 is
// part of the contract.
func TestSegmentedScanBoundarySegments(t *testing.T) {
	vals := []float64{1, 2, 3, 4}

	allHeads := []bool{true, true, true, true}
	got, _, err := SegmentedScan(vals, allHeads)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("all-heads[%d] = %v, want %v", i, got[i], vals[i])
		}
	}

	oneSegment := []bool{true, false, false, false}
	got, _, err = SegmentedScan(vals, oneSegment)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, 3, 6, 10} {
		if got[i] != want {
			t.Fatalf("one-segment[%d] = %v, want %v", i, got[i], want)
		}
	}

	// Element 0 starts a segment even when its head flag is false.
	noFirstHead := []bool{false, false, true, false}
	got, _, err = SegmentedScan(vals, noFirstHead)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, 3, 3, 7} {
		if got[i] != want {
			t.Fatalf("implicit-head[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestSegmentedScanLengthMismatch(t *testing.T) {
	if _, _, err := SegmentedScan([]float64{1, 2}, []bool{true}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestPermuteRejectsBadPermutations(t *testing.T) {
	cases := []struct {
		name string
		perm []int
	}{
		{"length mismatch", []int{0}},
		{"out of range", []int{0, 2}},
		{"negative", []int{-1, 0}},
		{"duplicate", []int{1, 1}},
	}
	for _, c := range cases {
		if _, _, err := Permute([]float64{1, 2}, c.perm); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestWithCongestionReportsMaxLinkLoad(t *testing.T) {
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i)
	}
	_, plain := Scan(vals)
	if plain.MaxLinkLoad != 0 {
		t.Errorf("MaxLinkLoad without WithCongestion = %d, want 0", plain.MaxLinkLoad)
	}
	_, tracked := Scan(vals, WithCongestion())
	if tracked.MaxLinkLoad <= 0 {
		t.Errorf("MaxLinkLoad with WithCongestion = %d, want > 0", tracked.MaxLinkLoad)
	}
	if tracked.MaxLinkLoad > tracked.Energy {
		t.Errorf("MaxLinkLoad %d exceeds total energy %d", tracked.MaxLinkLoad, tracked.Energy)
	}
	// Tracking is observational: all cost metrics stay byte-identical.
	tracked.MaxLinkLoad = 0
	if tracked != plain {
		t.Errorf("congestion tracking changed costs: %v vs %v", tracked, plain)
	}
}

func TestWithMemoryLimitViolationIsError(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	heads := []bool{true, false, true, false}
	_, _, err := SegmentedScan(vals, heads, WithMemoryLimit(1))
	if err == nil {
		t.Fatal("memory limit 1 not reported")
	}
	var mle machine.MemoryLimitError
	if !errors.As(err, &mle) {
		t.Fatalf("error %v (%T) is not a machine.MemoryLimitError", err, err)
	}
	if mle.Limit != 1 || mle.Registers <= mle.Limit {
		t.Errorf("MemoryLimitError = %+v", mle)
	}
	// A generous limit passes and still certifies O(1) memory.
	out, m, err := SegmentedScan(vals, heads, WithMemoryLimit(64))
	if err != nil {
		t.Fatalf("generous limit failed: %v", err)
	}
	if len(out) != 4 || m.PeakMemory > 64 {
		t.Errorf("out=%v peak=%d", out, m.PeakMemory)
	}
}

func TestWithSeedDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	v1, m1, err1 := Select(vals, 77, WithSeed(5))
	v2, m2, err2 := Select(vals, 77, WithSeed(5))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if v1 != v2 || m1 != m2 {
		t.Errorf("same seed, different runs: (%v, %v) vs (%v, %v)", v1, m1, v2, m2)
	}
	// A different seed changes the random pivots (so usually the costs) but
	// never the answer.
	v3, _, err3 := Select(vals, 77, WithSeed(6))
	if err3 != nil {
		t.Fatal(err3)
	}
	if v3 != v1 {
		t.Errorf("seed changed the selected value: %v vs %v", v3, v1)
	}
}

func TestOptionsOnAggregateOps(t *testing.T) {
	// Options thread through the composite facades (GNN, Tree) too.
	tr := Tree{Parent: []int{0, 0, 1}}
	var count int64
	out, _, err := tr.RootfixSum([]float64{1, 1, 1}, WithTraceSink(trace.SinkFunc(func(*trace.Event) { count++ })))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || count == 0 {
		t.Errorf("out=%v traced=%d", out, count)
	}

	g := GNNGraph{Nodes: 4, Edges: []GraphEdge{{0, 1, 1}, {2, 3, 1}}}
	feats := [][]float64{{1, 2, 3, 4}}
	_, _, m, err := GNN{Layers: 1, TopK: 2}.Forward(g, feats, WithCongestion())
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxLinkLoad <= 0 {
		t.Errorf("GNN MaxLinkLoad = %d, want > 0", m.MaxLinkLoad)
	}
}
