// Package spmv implements sparse matrix-vector multiplication on the
// Spatial Computer Model (Section VIII of the paper).
//
// The matrix is stored in coordinate format (COO): each non-zero is a
// triple (i, j, A_ij), distributed one per PE over a sqrt(m) x sqrt(m)
// subgrid in arbitrary order; the dense vector x occupies a sqrt(n) x
// sqrt(n) subgrid next to it.
//
// Multiply is the paper's direct algorithm (Theorem VIII.2), run on
// core's keyed pipeline: sort by column, elect column leaders, fetch and
// segmented-broadcast the vector entries, multiply locally, sort by row,
// elect row leaders, segmented-scan the partial products and deliver each
// row's total from the last position of its segment — O(m^{3/2}) energy,
// O(log^3 n) depth, O(sqrt m) distance, matching the lower bound of Lemma
// VIII.1 for m = O(n).
//
// MultiplyPRAM is the PRAM-simulation upper bound from the same section: a
// CRCW program computing the products and summing them with a doubling
// (segmented Hillis-Steele) prefix, executed by the Lemma VII.2 simulation —
// O(m^{3/2}) energy but O(log^4 n) depth and O(sqrt m log n) distance, a
// log-factor worse than the direct algorithm in depth and distance.
package spmv

import (
	"fmt"
	"math"

	"repro/internal/collectives"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
)

// Entry is one non-zero matrix element A[Row][Col] = Val.
type Entry struct {
	Row, Col int
	Val      float64
}

// Matrix is an N x N sparse matrix in coordinate (COO) format. Duplicate
// coordinates are allowed and contribute additively.
type Matrix struct {
	N       int
	Entries []Entry
}

// NNZ returns the number of stored entries.
func (a Matrix) NNZ() int { return len(a.Entries) }

// Validate checks that all coordinates are in range.
func (a Matrix) Validate() error {
	for _, e := range a.Entries {
		if e.Row < 0 || e.Row >= a.N || e.Col < 0 || e.Col >= a.N {
			return fmt.Errorf("spmv: entry (%d,%d) outside %dx%d matrix", e.Row, e.Col, a.N, a.N)
		}
	}
	return nil
}

// MultiplyDense is the host-side reference: y = A*x by direct accumulation.
func (a Matrix) MultiplyDense(x []float64) []float64 {
	y := make([]float64, a.N)
	for _, e := range a.Entries {
		y[e.Row] += e.Val * x[e.Col]
	}
	return y
}

// triple is the on-grid representation of a COO entry; pad marks the dummy
// entries filling the matrix subgrid up to a power-of-four size.
type triple struct {
	row, col int
	val      float64
	x        float64 // fetched vector entry
	pad      bool
}

// regT holds each matrix-subgrid PE's triple / partial product tuple.
const regT = "spmv.t"

// Multiply computes y = A*x with the direct sort+scan algorithm on machine
// m. It lays out the matrix subgrid at the origin and the vector subgrid to
// its right, runs the seven steps of Section VIII, and returns y. The
// matrix track is the paper's Z-order curve; MultiplyMapped exposes the
// track as a tunable.
func Multiply(m *machine.Machine, a Matrix, x []float64) ([]float64, error) {
	return MultiplyMapped(m, a, x, grid.TrackZOrder)
}

// MultiplyMapped is Multiply with the matrix-subgrid track (the order the
// triples are sorted along and scanned over) chosen by the caller: Z-order
// is the paper's locality-preserving default, Hilbert trades slightly
// different locality, row-major is the curve-free baseline. The matrix
// subgrid is always a square power-of-two side, so every track kind is
// valid. The vector and output subgrids stay row-major — they are
// addressed pointwise, never scanned.
func MultiplyMapped(m *machine.Machine, a Matrix, x []float64, kind grid.TrackKind) ([]float64, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if len(x) != a.N {
		return nil, fmt.Errorf("spmv: vector length %d for %dx%d matrix", len(x), a.N, a.N)
	}
	if a.NNZ() == 0 {
		return make([]float64, a.N), nil
	}

	// Layout: matrix triples on a square power-of-two subgrid (padded),
	// x on a ceil(sqrt n) square to the right, y below x.
	mat := grid.Square(machine.Coord{}, grid.Pow2Side(a.NNZ()))
	mt := grid.TrackFor(kind, mat)
	total := mat.Size()

	vecSide := int(math.Ceil(math.Sqrt(float64(a.N))))
	vec := mat.RightOf(vecSide, vecSide)
	vt := grid.RowMajor(vec)
	out := vec.Below(vecSide, vecSide)
	ot := grid.RowMajor(out)

	for i := 0; i < total; i++ {
		if i < a.NNZ() {
			e := a.Entries[i]
			m.Set(mt.At(i), regT, triple{row: e.Row, col: e.Col, val: e.Val})
		} else {
			m.Set(mt.At(i), regT, triple{pad: true})
		}
	}
	for j := 0; j < a.N; j++ {
		m.Set(vt.At(j), "spmv.x", x[j])
	}

	// Step 1: sort the triples by column index (padding last).
	m.Phase("spmv/sort-cols")
	k := core.NewKeyed(m, mat, kind, regT)
	k.Sort(tripleByCol)

	// Step 2: column leaders — each PE learns its track predecessor's
	// column index.
	m.Phase("spmv/col-leaders")
	k.ElectHeads(colKey)

	// Step 3: column leaders fetch x_j and a segmented broadcast (a
	// segmented scan with the First operator) distributes it.
	m.Phase("spmv/broadcast-x")
	k.Fetch(func(v machine.Value) (machine.Coord, bool) {
		t := v.(triple)
		return vt.At(t.col), !t.pad
	}, "spmv.x", 0.0)

	// Step 4: local partial products.
	for i := 0; i < total; i++ {
		c := mt.At(i)
		t := m.Get(c, regT).(triple)
		if !t.pad {
			t.x = m.Get(c, core.KeyedVal).(float64)
		}
		m.Set(c, regT, t)
		m.Del(c, core.KeyedVal)
		m.Del(c, core.KeyedHead)
	}

	// Step 5: sort the products by row index.
	m.Phase("spmv/sort-rows")
	k.Sort(tripleByRow)

	// Step 6: row leaders.
	m.Phase("spmv/row-leaders")
	k.ElectHeads(rowKey)

	// Step 7: segmented scan sums each row's products; the last PE of a
	// segment holds the row total and routes it to the output subgrid
	// (pads sort last and form their own segment, so the last real
	// segment ends before them).
	m.Phase("spmv/row-sums")
	for i := 0; i < total; i++ {
		c := mt.At(i)
		t := m.Get(c, regT).(triple)
		prod := 0.0
		if !t.pad {
			prod = t.val * t.x
		}
		m.Set(c, core.KeyedVal, prod)
	}
	k.Scan(collectives.Add, 0.0)
	m.Phase("spmv/route-out")
	k.DeliverLast(func(v machine.Value) (machine.Coord, bool) {
		t := v.(triple)
		return ot.At(t.row), !t.pad
	}, "spmv.y")
	for i := 0; i < total; i++ {
		c := mt.At(i)
		m.Del(c, core.KeyedVal)
		m.Del(c, core.KeyedHead)
		m.Del(c, regT)
	}

	y := make([]float64, a.N)
	for r := 0; r < a.N; r++ {
		if v, ok := m.Lookup(ot.At(r), "spmv.y"); ok {
			y[r] = v.(float64)
			m.Del(ot.At(r), "spmv.y")
		}
	}
	return y, nil
}

// colKey and rowKey order real triples by column/row with pads last.
func colKey(v machine.Value) int64 {
	t := v.(triple)
	if t.pad {
		return int64(1) << 60
	}
	return int64(t.col)
}

func rowKey(v machine.Value) int64 {
	t := v.(triple)
	if t.pad {
		return int64(1) << 60
	}
	return int64(t.row)
}

func tripleByCol(a, b machine.Value) bool { return colKey(a) < colKey(b) }
func tripleByRow(a, b machine.Value) bool { return rowKey(a) < rowKey(b) }
