// Package tuner searches the discrete layout/schedule space of the
// library's primitives — grid track, collective-tree arity, tile aspect
// ratio, sort-algorithm choice (internal/mapping) — and returns the
// energy-, depth- and energy-delay-product-minimal configuration per
// workload and problem size, in the style of dataflow mapping optimizers
// (dMazeRunner's get_min_energy/get_min_edp over a pruned discrete
// space).
//
// The search is exhaustive over each workload's pruned candidate list:
// the space is small (a few to ~15 candidates per workload once invalid
// and redundant points are canonicalized away), and exhaustive
// enumeration keeps the verdict reproducible — the tuner's output is a
// pure function of (workload, sizes, seed), byte-identical for any
// worker count and for cold vs warm result caches.
//
// One measurement: each workload is measured by one sweep,
// "bounds/tuned-<name>" (Workload.Sweep). A point draws one input from
// its RNG — seeded by (base seed, sweep name, point index) — and
// evaluates every candidate on it (EvalPoint), so candidates compare
// configurations, not workloads. experiments.BoundSweeps registers the
// same spec that Tune runs: spatialtune's verdicts decode exactly the
// rows the tuner/* conformance claims judge, under the same cache keys.
package tuner

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/collectives"
	"repro/internal/grid"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/mapped"
	"repro/internal/mapping"
	"repro/internal/order"
	"repro/internal/spmv"
	"repro/internal/workload"
)

// Workload is one tunable primitive family: a pruned candidate list plus
// the code that generates an input and runs it under a mapping.
type Workload struct {
	// Name keys the measurement sweep ("bounds/tuned-<Name>") and the
	// CLI's -workload flag.
	Name string
	// Desc is the one-line description the CLI lists.
	Desc string
	// Candidates is the pruned mapping space in canonical (string) order.
	// The naive baseline mapping.Default() is always among them.
	Candidates []mapping.Mapping
	// Cost is the scheduling/ETA cost proxy for one candidate at size n.
	Cost func(n int) float64

	// Gen draws the size-n input from rng. Run executes it on m under mp;
	// every candidate of one point receives the same input value.
	Gen func(rng *rand.Rand, n int) any
	Run func(m *machine.Machine, n int, input any, mp mapping.Mapping)

	quickNs, fullNs []int
}

// Sizes returns the workload's problem sizes (powers of four, so padded
// layouts are exact). The full list extends the quick list — never
// reorders it — so quick-mode rows stay byte-identical between modes.
func (w Workload) Sizes(quick bool) []int {
	if quick {
		return w.quickNs
	}
	return w.fullNs
}

// Workloads returns every tunable workload in CLI order.
func Workloads() []Workload {
	return []Workload{scanWorkload(), reduceWorkload(), sortWorkload(), spmvWorkload()}
}

// ByName returns the named workload.
func ByName(name string) (Workload, bool) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Candidate is one evaluated mapping: the configuration plus its
// measured model costs at a single problem size.
type Candidate struct {
	Mapping mapping.Mapping `json:"mapping"`
	Energy  int64           `json:"energy"`
	Depth   int64           `json:"depth"`
}

// EDP is the energy-delay product (energy x depth), the tuner's default
// objective.
func (c Candidate) EDP() float64 { return float64(c.Energy) * float64(c.Depth) }

// dominates reports whether a is at least as good as b on both axes and
// strictly better on one.
func dominates(a, b Candidate) bool {
	return a.Energy <= b.Energy && a.Depth <= b.Depth &&
		(a.Energy < b.Energy || a.Depth < b.Depth)
}

// Pareto returns the candidates not dominated on (Energy, Depth), in the
// input's order. Ties (equal on both axes) all survive: they are
// distinct configurations with identical costs, and the Min selectors
// break the tie deterministically.
func Pareto(cands []Candidate) []Candidate {
	var front []Candidate
	for i, c := range cands {
		dominated := false
		for j, o := range cands {
			if i != j && dominates(o, c) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, c)
		}
	}
	return front
}

// MinEnergy returns the energy-minimal candidate; ties break to the
// earliest in the (canonically ordered) input, so the verdict is
// deterministic. Panics on an empty slice.
func MinEnergy(cands []Candidate) Candidate {
	return minBy(cands, func(c Candidate) float64 { return float64(c.Energy) })
}

// MinDepth returns the depth-minimal candidate (ties as in MinEnergy).
func MinDepth(cands []Candidate) Candidate {
	return minBy(cands, func(c Candidate) float64 { return float64(c.Depth) })
}

// MinEDP returns the EDP-minimal candidate (ties as in MinEnergy). For
// positive costs it always lies on the Pareto front.
func MinEDP(cands []Candidate) Candidate {
	return minBy(cands, func(c Candidate) float64 { return c.EDP() })
}

func minBy(cands []Candidate, key func(Candidate) float64) Candidate {
	if len(cands) == 0 {
		panic("tuner: min over no candidates")
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if key(c) < key(best) {
			best = c
		}
	}
	return best
}

// Baseline returns the candidate measured under mapping.Default() — the
// naive configuration every verdict is compared against.
func Baseline(cands []Candidate) (Candidate, bool) {
	def := mapping.Default()
	for _, c := range cands {
		if c.Mapping == def {
			return c, true
		}
	}
	return Candidate{}, false
}

// Objective selects which cost a verdict minimizes.
type Objective string

const (
	ObjEnergy Objective = "energy"
	ObjDepth  Objective = "depth"
	ObjEDP    Objective = "edp"
)

// ParseObjective validates an -objective flag value.
func ParseObjective(s string) (Objective, error) {
	switch Objective(s) {
	case ObjEnergy, ObjDepth, ObjEDP:
		return Objective(s), nil
	}
	return "", fmt.Errorf("tuner: unknown objective %q (want energy, depth or edp)", s)
}

// SizeResult is the verdict for one workload at one problem size.
type SizeResult struct {
	N          int         `json:"n"`
	Candidates []Candidate `json:"candidates"` // all, canonical mapping order
	Pareto     []Candidate `json:"pareto"`     // non-dominated on (energy, depth)
	MinEnergy  Candidate   `json:"min_energy"`
	MinDepth   Candidate   `json:"min_depth"`
	MinEDP     Candidate   `json:"min_edp"`
}

// Best returns the objective-minimal candidate of the size.
func (s SizeResult) Best(obj Objective) Candidate {
	switch obj {
	case ObjEnergy:
		return s.MinEnergy
	case ObjDepth:
		return s.MinDepth
	default:
		return s.MinEDP
	}
}

// Result is the full verdict for one workload.
type Result struct {
	Workload string       `json:"workload"`
	Sizes    []SizeResult `json:"sizes"`
}

// Sweep is w's one measurement: the "bounds/tuned-<Name>" sweep spec that
// experiments.BoundSweeps registers and Tune runs. Point i evaluates every
// candidate at the i-th size on one input (EvalPoint) and returns one row
// {n, tunedEDP, baselineEDP, energy_0, depth_0, energy_1, depth_1, ...}:
// the EDP of the EDP-minimal candidate and of mapping.Default() — the
// columns the tuner/* claims read — then each candidate's energy and depth
// in Candidates order. The candidates run sequentially inside the point (a
// point cannot nest a runner), so the cost hint scales with their count.
func (w Workload) Sweep(quick bool) harness.SweepSpec {
	ns := w.Sizes(quick)
	return harness.SweepSpec{
		Name:   "bounds/tuned-" + w.Name,
		Points: len(ns),
		Cost:   func(i int) float64 { return float64(len(w.Candidates)) * w.Cost(ns[i]) },
		Point: func(i int, env *harness.Env) []harness.Row {
			cands := EvalPoint(w, ns[i], env)
			base, ok := Baseline(cands)
			if !ok {
				panic("tuner: workload " + w.Name + " has no baseline candidate")
			}
			row := make(harness.Row, 0, 3+2*len(cands))
			row = append(row, ns[i], MinEDP(cands).EDP(), base.EDP())
			for _, c := range cands {
				row = append(row, c.Energy, c.Depth)
			}
			return []harness.Row{row}
		},
	}
}

// Tune runs each workload's measurement sweep (Sweep) through runner r and
// decodes its rows into per-size verdicts, so the verdicts rest on the
// rows the tuner/* claims judge and share their cache entries. Every
// sweep is enqueued before any is collected, so the workloads' points
// overlap on the runner's pool.
func Tune(r *harness.Runner, quick bool, ws ...Workload) []Result {
	sweeps := make([]*harness.Sweep, len(ws))
	for i, w := range ws {
		sweeps[i] = w.Sweep(quick).Go(r)
	}
	results := make([]Result, len(ws))
	for i, w := range ws {
		results[i].Workload = w.Name
		for _, row := range sweeps[i].Rows() {
			cands := make([]Candidate, len(w.Candidates))
			for k, mp := range w.Candidates {
				cands[k] = Candidate{Mapping: mp, Energy: row[3+2*k].(int64), Depth: row[4+2*k].(int64)}
			}
			results[i].Sizes = append(results[i].Sizes, SizeResult{
				N:          row[0].(int),
				Candidates: cands,
				Pareto:     Pareto(cands),
				MinEnergy:  MinEnergy(cands),
				MinDepth:   MinDepth(cands),
				MinEDP:     MinEDP(cands),
			})
		}
	}
	return results
}

// EvalPoint measures every candidate of w at size n sequentially inside
// one sweep point, on one input drawn from env.Rng. Every candidate sees
// the identical input, so the returned Candidates compare configurations,
// not workloads.
func EvalPoint(w Workload, n int, env *harness.Env) []Candidate {
	input := w.Gen(env.Rng, n)
	cands := make([]Candidate, 0, len(w.Candidates))
	for _, mp := range w.Candidates {
		cur := mp
		mm := env.Measure(func(m *machine.Machine) { w.Run(m, n, input, cur) })
		cands = append(cands, Candidate{Mapping: mp, Energy: mm.Energy, Depth: mm.Depth})
	}
	return cands
}

// --- Workload definitions -------------------------------------------------

// scanWorkload: inclusive prefix sums. The track is the knob — a Z-order
// track selects the paper's quadtree scan (Lemma IV.3), the others the
// binary-tree scan along the curve.
func scanWorkload() Workload {
	var cands []mapping.Mapping
	for _, tr := range grid.TrackKinds() {
		mp := mapping.Default()
		mp.Track = tr
		cands = append(cands, mp)
	}
	mapping.SortMappings(cands)
	return Workload{
		Name:       "scan",
		Desc:       "inclusive prefix sums (track: quadtree vs tree scan)",
		Candidates: cands,
		Cost:       func(n int) float64 { return float64(n) * log2f(n) },
		quickNs:    []int{64, 256, 1024},
		fullNs:     []int{64, 256, 1024, 4096, 16384, 65536},
		Gen:        func(rng *rand.Rand, n int) any { return workload.Array(workload.Random, n, rng) },
		Run: func(m *machine.Machine, n int, input any, mp mapping.Mapping) {
			r := grid.SquareFor(machine.Coord{}, n)
			placeFloats(m, mapped.ScanTrack(mp, r), input.([]float64), 0)
			mapped.Scan(m, r, "v", collectives.Add, 0.0, mp)
		},
	}
}

// reduceWorkload: global sum. Track, arity and (for row-major) tile are
// the knobs; zorder/arity-4 is the paper's quadrant recursion.
func reduceWorkload() Workload {
	var cands []mapping.Mapping
	for _, tr := range grid.TrackKinds() {
		tiles := []mapping.Tile{mapping.TileSquare}
		if tr == grid.TrackRowMajor {
			tiles = mapping.Tiles() // curves need a square region
		}
		for _, a := range mapping.Arities() {
			for _, ti := range tiles {
				cands = append(cands, mapping.Mapping{Track: tr, Arity: a, Tile: ti, Sort: mapping.SortBitonic})
			}
		}
	}
	mapping.SortMappings(cands)
	return Workload{
		Name:       "reduce",
		Desc:       "global sum (track x tree arity x tile shape)",
		Candidates: cands,
		Cost:       func(n int) float64 { return float64(n) },
		quickNs:    []int{64, 256, 1024},
		fullNs:     []int{64, 256, 1024, 4096, 16384, 65536},
		Gen:        func(rng *rand.Rand, n int) any { return workload.Array(workload.Random, n, rng) },
		Run: func(m *machine.Machine, n int, input any, mp mapping.Mapping) {
			r := mapped.ReduceRegion(n, mp)
			placeFloats(m, grid.RowMajor(r), input.([]float64), 0)
			mapped.Reduce(m, r, "v", collectives.Add, mp)
		},
	}
}

// sortWorkload: ascending sort. The algorithm is the main knob; the
// network sorts additionally expose their wire layout (track). The
// region-structured algorithms (merge, shearsort) and the odd-even
// network are enumerated once, on the canonical row-major track.
func sortWorkload() Workload {
	cands := []mapping.Mapping{
		{Track: grid.TrackRowMajor, Arity: 2, Tile: mapping.TileSquare, Sort: mapping.SortMerge},
		{Track: grid.TrackRowMajor, Arity: 2, Tile: mapping.TileSquare, Sort: mapping.SortShearsort},
		{Track: grid.TrackRowMajor, Arity: 2, Tile: mapping.TileSquare, Sort: mapping.SortOddEven},
	}
	for _, tr := range grid.TrackKinds() {
		cands = append(cands, mapping.Mapping{Track: tr, Arity: 2, Tile: mapping.TileSquare, Sort: mapping.SortBitonic})
	}
	mapping.SortMappings(cands)
	return Workload{
		Name:       "sort",
		Desc:       "ascending sort (algorithm x network wire layout)",
		Candidates: cands,
		Cost:       func(n int) float64 { return float64(n) * math.Sqrt(float64(n)) },
		quickNs:    []int{64, 256, 1024},
		fullNs:     []int{64, 256, 1024, 4096, 16384},
		Gen:        func(rng *rand.Rand, n int) any { return workload.Array(workload.Random, n, rng) },
		Run: func(m *machine.Machine, n int, input any, mp mapping.Mapping) {
			r := grid.SquareFor(machine.Coord{}, n)
			placeFloats(m, mapped.SortTrack(mp, r), input.([]float64), math.Inf(1))
			mapped.Sort(m, r, "v", order.Float64, mp)
		},
	}
}

// spmvInput is one SpMV workload instance: a uniform sparse matrix with
// 4n non-zeros and a dense vector.
type spmvInput struct {
	a spmv.Matrix
	x []float64
}

// spmvWorkload: sparse matrix-vector product. The matrix-subgrid track
// is the knob (spmv.MultiplyMapped); Z-order is the paper's choice.
func spmvWorkload() Workload {
	var cands []mapping.Mapping
	for _, tr := range grid.TrackKinds() {
		mp := mapping.Default()
		mp.Track = tr
		cands = append(cands, mp)
	}
	mapping.SortMappings(cands)
	return Workload{
		Name:       "spmv",
		Desc:       "sparse matrix-vector product (matrix-subgrid track)",
		Candidates: cands,
		Cost:       func(n int) float64 { m := float64(4 * n); return m * math.Sqrt(m) },
		quickNs:    []int{16, 64, 256},
		fullNs:     []int{16, 64, 256, 1024},
		Gen: func(rng *rand.Rand, n int) any {
			return spmvInput{
				a: workload.SparseMatrix(workload.MatUniform, n, 4*n, rng),
				x: workload.Array(workload.Random, n, rng),
			}
		},
		Run: func(m *machine.Machine, n int, input any, mp mapping.Mapping) {
			in := input.(spmvInput)
			if _, err := spmv.MultiplyMapped(m, in.a, in.x, mp.Track); err != nil {
				panic(err)
			}
		},
	}
}

// placeFloats lays vals out along t, padding the tail with pad.
func placeFloats(m *machine.Machine, t grid.Track, vals []float64, pad float64) {
	for i := 0; i < t.Len(); i++ {
		v := pad
		if i < len(vals) {
			v = vals[i]
		}
		m.Set(t.At(i), "v", v)
	}
}

func log2f(n int) float64 { return math.Log2(float64(max(n, 2))) }
