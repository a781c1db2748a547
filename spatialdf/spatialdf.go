// Package spatialdf is the public API of the spatial-dataflow algorithms
// library: energy-optimal, low-depth primitives for the Spatial Computer
// Model — parallel scans, sorting, rank selection and sparse matrix-vector
// multiplication — as described in "Energy-Optimal and Low-Depth
// Algorithmic Primitives for Spatial Dataflow Architectures" (IPDPS 2025).
//
// Every operation lays a plain Go slice out on a simulated processor grid,
// runs the spatial algorithm, and returns the result together with the
// model-cost Metrics (energy, depth, distance — the quantities the paper's
// Table I bounds). Baseline variants (bitonic network sort, binary-tree
// scan, mesh shearsort, PRAM-simulated SpMV) are included so the paper's
// comparisons can be reproduced through the same interface.
//
// Every operation accepts functional options configuring the simulated
// machine: WithMemoryLimit (certify the O(1)-memory contract),
// WithCongestion (per-link load tracking, reported as Metrics.MaxLinkLoad),
// WithTraceSink (structured per-message events for the sinks in the trace
// package — heatmaps, phase counters, Chrome trace_event export) and
// WithSeed (randomized operations). Operations validate their inputs and return
// errors — they do not panic on user data.
//
// An operation records nothing it was not asked for. To see the chain of
// messages that realized the Depth and Distance costs, attach a
// CriticalPath recorder with WithTraceSink and read its DepthPath and
// DistancePath after the call.
//
// Inputs of arbitrary length are padded internally to the power-of-four
// sizes the model assumes; padding never changes results.
package spatialdf

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/collectives"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/mapped"
	"repro/internal/order"
	"repro/internal/sortnet"
	"repro/internal/spmv"
)

// Metrics are the Spatial Computer Model costs of one operation.
type Metrics struct {
	// Energy is the total Manhattan distance travelled by all messages —
	// the load on the on-chip network.
	Energy int64
	// Depth is the longest chain of dependent messages — the inverse of
	// available parallelism.
	Depth int64
	// Distance is the largest summed distance along any dependent chain —
	// the wire latency.
	Distance int64
	// Messages counts all messages sent.
	Messages int64
	// PeakMemory is the largest number of words held by any single
	// processing element (the model requires O(1)).
	PeakMemory int
	// MaxLinkLoad is the highest traversal count over any single directed
	// mesh link under dimension-ordered routing — the congestion
	// complement of Energy (the total load). Populated only when the
	// operation ran WithCongestion; zero otherwise.
	MaxLinkLoad int64
}

func fromMachine(m *machine.Machine) Metrics {
	mm := m.Metrics()
	return Metrics{
		Energy:      mm.Energy,
		Depth:       mm.Depth,
		Distance:    mm.Distance,
		Messages:    mm.Messages,
		PeakMemory:  mm.PeakMemory,
		MaxLinkLoad: m.MaxCongestion(),
	}
}

func (m Metrics) String() string {
	s := fmt.Sprintf("energy=%d depth=%d distance=%d messages=%d peakMem=%d",
		m.Energy, m.Depth, m.Distance, m.Messages, m.PeakMemory)
	if m.MaxLinkLoad > 0 {
		s += fmt.Sprintf(" maxLink=%d", m.MaxLinkLoad)
	}
	return s
}

// Sequential returns the cost of running this operation followed by
// another: energies and message counts add, chains concatenate (depth and
// distance add), memory peaks take the maximum. Iterative applications —
// e.g. the SpMV inside a conjugate-gradient loop — compose with it.
// MaxLinkLoad also takes the maximum: the phases may peak on different
// links, so the sum would overstate the congestion of the composition.
func (m Metrics) Sequential(next Metrics) Metrics {
	peak := m.PeakMemory
	if next.PeakMemory > peak {
		peak = next.PeakMemory
	}
	link := m.MaxLinkLoad
	if next.MaxLinkLoad > link {
		link = next.MaxLinkLoad
	}
	return Metrics{
		Energy:      m.Energy + next.Energy,
		Depth:       m.Depth + next.Depth,
		Distance:    m.Distance + next.Distance,
		Messages:    m.Messages + next.Messages,
		PeakMemory:  peak,
		MaxLinkLoad: link,
	}
}

// gridFor returns a machine (configured by cfg, with its trace phase set to
// the operation name) and a square power-of-two region large enough for n
// elements.
func gridFor(n int, cfg config, phase string) (*machine.Machine, grid.Rect) {
	m := cfg.newMachine()
	m.Phase(phase)
	return m, grid.Square(machine.Coord{}, grid.Pow2Side(n))
}

// Scan returns the inclusive prefix sums of vals using the energy-optimal
// Z-order scan (Lemma IV.3: Theta(n) energy, O(log n) depth, Theta(sqrt n)
// distance).
func Scan(vals []float64, opts ...Option) ([]float64, Metrics) {
	return ScanWith(func(a, b float64) float64 { return a + b }, 0, vals, opts...)
}

// ScanWith is Scan for an arbitrary associative operator with the given
// identity element.
func ScanWith(op func(a, b float64) float64, identity float64, vals []float64, opts ...Option) ([]float64, Metrics) {
	cfg := buildConfig(opts)
	track := func(r grid.Rect) grid.Track { return mapped.ScanTrack(cfg.mapping, r) }
	return padded(vals, identity, cfg, "scan", track, func(m *machine.Machine, r grid.Rect) {
		mapped.Scan(m, r, "v", func(a, b machine.Value) machine.Value {
			return op(a.(float64), b.(float64))
		}, identity, cfg.mapping)
	})
}

// SegmentedScan computes inclusive per-segment prefix sums, where heads[i]
// marks the first element of each segment (element 0 always starts one).
// It returns an error if vals and heads differ in length.
func SegmentedScan(vals []float64, heads []bool, opts ...Option) (out []float64, met Metrics, err error) {
	if len(vals) != len(heads) {
		return nil, Metrics{}, fmt.Errorf("spatialdf: SegmentedScan length mismatch: %d values, %d heads", len(vals), len(heads))
	}
	if len(vals) == 0 {
		return nil, Metrics{}, nil
	}
	defer captureMemLimit(&err)
	m, r := gridFor(len(vals), buildConfig(opts), "segmented-scan")
	t := grid.ZOrder(r)
	grid.Place(m, t, "v", vals, 0)
	grid.Place(m, t, "h", heads, true)
	collectives.SegmentedScan(m, r, "v", "h", collectives.Add, 0.0)
	return grid.Extract[float64](m, t, "v", len(vals)), fromMachine(m), nil
}

// ScanTree computes the same prefix sums with the binary-tree scan over a
// row-major layout — the Theta(n log n)-energy baseline of Section IV-C.
func ScanTree(vals []float64, opts ...Option) ([]float64, Metrics) {
	return padded(vals, 0, buildConfig(opts), "scan-tree", grid.RowMajor, func(m *machine.Machine, r grid.Rect) {
		collectives.ScanTrack(m, grid.RowMajor(r), "v", collectives.Add, 0.0)
	})
}

// ScanSequential computes the prefix sums with a sequential relay chain in
// Z-order: Theta(n) energy but Theta(n) depth (no parallelism).
func ScanSequential(vals []float64, opts ...Option) ([]float64, Metrics) {
	return padded(vals, 0, buildConfig(opts), "scan-seq", grid.ZOrder, func(m *machine.Machine, r grid.Rect) {
		collectives.ScanSequential(m, grid.ZOrder(r), "v", collectives.Add)
	})
}

// Reduce returns the sum of vals with the multicast-free reduce of
// Corollary IV.2 (O(n) energy, O(log n) depth on a square subgrid).
func Reduce(vals []float64, opts ...Option) (float64, Metrics) {
	if len(vals) == 0 {
		return 0, Metrics{}
	}
	cfg := buildConfig(opts)
	m := cfg.newMachine()
	m.Phase("reduce")
	r := mapped.ReduceRegion(len(vals), cfg.mapping)
	grid.Place(m, grid.RowMajor(r), "v", vals, 0)
	mapped.Reduce(m, r, "v", collectives.Add, cfg.mapping)
	return m.Get(r.Origin, "v").(float64), fromMachine(m)
}

// BroadcastCost reports the model cost of broadcasting one value to n
// processors without multicasting (Lemma IV.1).
func BroadcastCost(n int, opts ...Option) Metrics {
	m, r := gridFor(n, buildConfig(opts), "broadcast")
	m.Set(r.Origin, "v", 1.0)
	collectives.Broadcast(m, r, "v")
	return fromMachine(m)
}

// Sort returns vals in ascending order, NaN first as sort.Float64s orders
// it (as do SortBitonic and SortMesh), using the energy-optimal 2-D
// mergesort (Theorem V.8: Theta(n^{3/2}) energy — matching the permutation
// lower bound — O(log^3 n) depth, Theta(sqrt n) distance).
func Sort(vals []float64, opts ...Option) ([]float64, Metrics) {
	cfg := buildConfig(opts)
	track := func(r grid.Rect) grid.Track { return mapped.SortTrack(cfg.mapping, r) }
	return padded(vals, math.Inf(1), cfg, "sort/"+string(cfg.mapping.Sort), track, func(m *machine.Machine, r grid.Rect) {
		mapped.Sort(m, r, "v", order.Float64, cfg.mapping)
	})
}

// SortBitonic sorts with the bitonic network on a row-major layout — the
// Theta(n^{3/2} log n)-energy baseline of Lemma V.4.
func SortBitonic(vals []float64, opts ...Option) ([]float64, Metrics) {
	return padded(vals, math.Inf(1), buildConfig(opts), "sort/bitonic", grid.RowMajor, func(m *machine.Machine, r grid.Rect) {
		sortnet.Sort(m, grid.RowMajor(r), "v", r.Size(), order.Float64)
	})
}

// SortMesh sorts with shearsort, a classic mesh-connected-computer
// algorithm with polynomial Theta(sqrt n log n) depth (Section II-B).
func SortMesh(vals []float64, opts ...Option) ([]float64, Metrics) {
	return padded(vals, math.Inf(1), buildConfig(opts), "sort/shearsort", grid.RowMajor, func(m *machine.Machine, r grid.Rect) {
		sortnet.Shearsort(m, r, "v", order.Float64)
	})
}

// padded lays vals out along track(r), padded with pad, runs the operation
// and reads the results back along the same track.
func padded(vals []float64, pad float64, cfg config, phase string, track func(grid.Rect) grid.Track, run func(*machine.Machine, grid.Rect)) ([]float64, Metrics) {
	if len(vals) == 0 {
		return nil, Metrics{}
	}
	m, r := gridFor(len(vals), cfg, phase)
	t := track(r)
	grid.Place(m, t, "v", vals, pad)
	run(m, r)
	return grid.Extract[float64](m, t, "v", len(vals)), fromMachine(m)
}

// SortIndices sorts (value, index) pairs with the 2-D mergesort and returns
// the permutation order such that vals[order[0]] <= vals[order[1]] <= ...
// (ties broken by original index, i.e. a stable argsort; NaN sorts first,
// as in Sort). Use it when the sort key travels with a payload — e.g. a
// GNN sort-pooling layer ordering node embeddings by a score channel.
func SortIndices(vals []float64, opts ...Option) ([]int, Metrics) {
	if len(vals) == 0 {
		return nil, Metrics{}
	}
	type kv struct {
		v float64
		i int
	}
	m, r := gridFor(len(vals), buildConfig(opts), "sort/indices")
	t := grid.RowMajor(r)
	for i := 0; i < r.Size(); i++ {
		e := kv{v: math.Inf(1), i: i}
		if i < len(vals) {
			e.v = vals[i]
		}
		m.Set(t.At(i), "v", e)
	}
	less := func(a, b machine.Value) bool {
		x, y := a.(kv), b.(kv)
		if c := cmp.Compare(x.v, y.v); c != 0 {
			return c < 0
		}
		return x.i < y.i
	}
	core.MergeSort(m, r, "v", less)
	out := make([]int, len(vals))
	for i := range out {
		out[i] = m.Get(t.At(i), "v").(kv).i
	}
	return out, fromMachine(m)
}

// Select returns the k-th smallest element of vals (k is 1-indexed) using
// the randomized linear-energy selection of Theorem VI.3. The pseudo-random
// choices are seeded by WithSeed (default 1) for reproducibility; the
// result is exact for any seed. It returns an error if k is out of range.
func Select(vals []float64, k int, opts ...Option) (got float64, met Metrics, err error) {
	if k < 1 || k > len(vals) {
		return 0, Metrics{}, fmt.Errorf("spatialdf: Select rank %d out of range [1,%d]", k, len(vals))
	}
	defer captureMemLimit(&err)
	cfg := buildConfig(opts)
	m, r := gridFor(len(vals), cfg, "select")
	grid.Place(m, grid.RowMajor(r), "v", vals, math.Inf(1))
	v := core.Select(m, r, "v", k, order.Float64, rand.New(rand.NewSource(cfg.seed)))
	return v.(float64), fromMachine(m), nil
}

// Median returns the lower median of vals (rank ceil(n/2)). It returns an
// error if vals is empty.
func Median(vals []float64, opts ...Option) (float64, Metrics, error) {
	return Select(vals, (len(vals)+1)/2, opts...)
}

// Permute routes vals[i] to position perm[i] on a square grid, each element
// travelling directly. With the reversal permutation this measures the
// Omega(n^{3/2}) lower bound of Lemma V.1 that makes the mergesort optimal.
// It returns an error if perm is not a permutation of the indices of vals.
func Permute(vals []float64, perm []int, opts ...Option) (out []float64, met Metrics, err error) {
	if len(vals) != len(perm) {
		return nil, Metrics{}, fmt.Errorf("spatialdf: Permute length mismatch: %d values, %d positions", len(vals), len(perm))
	}
	seen := make([]bool, len(perm))
	for i, p := range perm {
		if p < 0 || p >= len(perm) {
			return nil, Metrics{}, fmt.Errorf("spatialdf: Permute position perm[%d] = %d out of range [0,%d)", i, p, len(perm))
		}
		if seen[p] {
			return nil, Metrics{}, fmt.Errorf("spatialdf: Permute position %d targeted twice", p)
		}
		seen[p] = true
	}
	if len(vals) == 0 {
		return nil, Metrics{}, nil
	}
	defer captureMemLimit(&err)
	m, r := gridFor(len(vals), buildConfig(opts), "permute")
	t := grid.Slice(grid.RowMajor(r), 0, len(vals))
	grid.Place(m, t, "v", vals, 0)
	core.Permute(m, t, "v", t, "v", perm)
	return grid.Extract[float64](m, t, "v", len(vals)), fromMachine(m), nil
}

// MatrixEntry is one non-zero element of a sparse matrix.
type MatrixEntry struct {
	Row, Col int
	Val      float64
}

// Matrix is an N x N sparse matrix in coordinate format. Duplicate
// coordinates contribute additively.
type Matrix struct {
	N       int
	Entries []MatrixEntry
}

// NNZ returns the number of stored entries.
func (a Matrix) NNZ() int { return len(a.Entries) }

func (a Matrix) internal() spmv.Matrix {
	out := spmv.Matrix{N: a.N, Entries: make([]spmv.Entry, len(a.Entries))}
	for i, e := range a.Entries {
		out.Entries[i] = spmv.Entry{Row: e.Row, Col: e.Col, Val: e.Val}
	}
	return out
}

// MultiplyDense is the host-side reference y = A*x.
func (a Matrix) MultiplyDense(x []float64) []float64 {
	return a.internal().MultiplyDense(x)
}

// SpMV computes y = A*x with the direct sort+scan algorithm of Theorem
// VIII.2 (Theta(m^{3/2}) energy, O(log^3 n) depth, Theta(sqrt m) distance).
func SpMV(a Matrix, x []float64, opts ...Option) (y []float64, met Metrics, err error) {
	defer captureMemLimit(&err)
	cfg := buildConfig(opts)
	m := cfg.newMachine()
	m.Phase("spmv")
	y, err = spmv.MultiplyMapped(m, a.internal(), x, cfg.mapping.Track)
	if err != nil {
		return nil, Metrics{}, err
	}
	return y, fromMachine(m), nil
}

// SpMVPRAM computes y = A*x by simulating the CRCW PRAM algorithm of
// Section VIII under the Lemma VII.2 simulation — the paper's baseline,
// a Theta(log n) factor worse in depth and distance.
func SpMVPRAM(a Matrix, x []float64, opts ...Option) (y []float64, met Metrics, err error) {
	defer captureMemLimit(&err)
	m := buildConfig(opts).newMachine()
	m.Phase("spmv-pram")
	y, err = spmv.MultiplyPRAM(m, a.internal(), x)
	if err != nil {
		return nil, Metrics{}, err
	}
	return y, fromMachine(m), nil
}
