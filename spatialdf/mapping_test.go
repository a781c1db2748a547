package spatialdf

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/mapping"
)

// TestWithMappingCorrectAcrossSpace: every mapping in the full space
// computes the same scan, reduce, sort and SpMV results as the host-side
// reference — mappings change costs, never answers.
func TestWithMappingCorrectAcrossSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 50 // pads to an 8x8 grid
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	wantScan := make([]float64, n)
	sum := 0.0
	for i, v := range vals {
		sum += v
		wantScan[i] = sum
	}
	wantSorted := append([]float64(nil), vals...)
	sort.Float64s(wantSorted)

	a := Matrix{N: 9}
	for i := 0; i < 20; i++ {
		a.Entries = append(a.Entries, MatrixEntry{Row: rng.Intn(9), Col: rng.Intn(9), Val: rng.NormFloat64()})
	}
	x := make([]float64, 9)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	wantY := a.MultiplyDense(x)

	for _, mp := range mapping.Space() {
		mp := mp
		t.Run(mp.String(), func(t *testing.T) {
			gotScan, _ := Scan(vals, WithMapping(mp))
			for i := range wantScan {
				if !close(gotScan[i], wantScan[i]) {
					t.Fatalf("scan[%d] = %v, want %v", i, gotScan[i], wantScan[i])
				}
			}
			gotSum, _ := Reduce(vals, WithMapping(mp))
			if !close(gotSum, sum) {
				t.Fatalf("reduce = %v, want %v", gotSum, sum)
			}
			gotSorted, _ := Sort(vals, WithMapping(mp))
			for i := range wantSorted {
				if gotSorted[i] != wantSorted[i] {
					t.Fatalf("sort[%d] = %v, want %v", i, gotSorted[i], wantSorted[i])
				}
			}
			y, _, err := SpMV(a, x, WithMapping(mp))
			if err != nil {
				t.Fatalf("SpMV: %v", err)
			}
			for i := range wantY {
				if !close(y[i], wantY[i]) {
					t.Fatalf("spmv y[%d] = %v, want %v", i, y[i], wantY[i])
				}
			}
		})
	}
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+abs(a)+abs(b))
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestWithMappingChangesCosts: the knob is real — the paper's mapping
// and the naive baseline must produce different metrics.
func TestWithMappingChangesCosts(t *testing.T) {
	vals := make([]float64, 256)
	for i := range vals {
		vals[i] = float64(i)
	}
	paper := Mapping{Track: TrackZOrder, Arity: 4, Tile: mapping.TileSquare, Sort: mapping.SortMerge}
	_, base := Reduce(vals, WithMapping(DefaultMapping()))
	_, tuned := Reduce(vals, WithMapping(paper))
	if base == tuned {
		t.Fatalf("baseline and paper mapping cost the same: %v", base)
	}
	if tuned.Energy >= base.Energy {
		t.Errorf("quadrant reduce energy %d not below row-major tree %d", tuned.Energy, base.Energy)
	}
}

// TestWithMappingDefaultUntouched: without the option, operations keep
// their documented paper mappings byte-for-byte.
func TestWithMappingDefaultUntouched(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	_, plain := Scan(vals)
	_, viaOption := Scan(vals, WithMapping(Mapping{Track: TrackZOrder, Arity: 4, Tile: mapping.TileSquare, Sort: mapping.SortMerge}))
	if plain != viaOption {
		t.Errorf("paper mapping via option differs from default path: %v vs %v", plain, viaOption)
	}
}

// TestWithMappingInvalid: an invalid mapping surfaces as an option
// error through the error-returning path.
func TestWithMappingInvalid(t *testing.T) {
	_, _, err := SpMV(Matrix{N: 1, Entries: []MatrixEntry{{0, 0, 1}}}, []float64{1},
		WithMapping(Mapping{Track: "diagonal", Arity: 2, Tile: mapping.TileSquare, Sort: mapping.SortMerge}))
	if err == nil {
		t.Fatal("unknown track accepted")
	}
}
