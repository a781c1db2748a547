package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/order"
	"repro/internal/workload"
)

// Finite-hardware backend sweeps: the same Table I sort measured on the
// ideal unbounded grid and on a folded W×H fabric (internal/machine
// backends). The fabric side is fixed at backendFabricSide and the fold
// block scales with the layout side, so the whole layout occupies exactly
// one pane — the regime where the per-message fold bounds are provable:
//
//	d_mesh <= d_ideal <= block·(d_mesh + 2)
//
// summing to E_mesh <= E_ideal <= f·(E_mesh + 2·messages) with f = block.
// The torus variant takes the shorter ring direction per axis, so
// E_torus <= E_mesh unconditionally. Backends change costs, never
// results: the sorted outputs must be byte-identical on every fabric.
const backendFabricSide = 8

// backendSortRun measures one MergeSort of vals under the given backend
// and returns the metrics, the peak per-link load (0 unless the machine
// tracks congestion), and an FNV-1a hash of the sorted output — the
// cross-backend answer-invariance fingerprint.
func backendSortRun(bk machine.Backend, n int, vals []float64, env *harness.Env) (machine.Metrics, int64, uint64) {
	m := env.Machine()
	// Explicit on every run — the runner itself may carry a backend
	// (harness.WithBackend), and these measurements compare fixed fabrics.
	m.SetBackend(bk)
	r := grid.SquareFor(machine.Coord{}, n)
	tr := grid.RowMajor(r)
	placeFloats(m, tr, "v", vals, 0)
	core.MergeSort(m, r, "v", order.Float64)
	met := m.Metrics()
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(m.Get(tr.At(i), "v").(float64)))
		h.Write(b[:])
	}
	return met, m.MaxCongestion(), h.Sum64()
}

// backendFoldBlock returns the per-axis fold block that maps the layout
// square for n exactly onto the backendFabricSide² fabric.
func backendFoldBlock(n int) int {
	side := grid.SquareFor(machine.Coord{}, n).W
	return side / backendFabricSide
}

// registerBackendSweeps registers the bounds/backend-* sweeps.
//
// bounds/backend-sort rows: {n, idealE, meshE, torusE, inflation, match}
// where inflation = idealE / (f·(meshE + 2·messages)) — provably <= 1 when
// the layout fits one pane — and match is 1 when the sorted outputs agree
// bit-for-bit across all three backends.
//
// bounds/backend-congestion rows: {n, idealE, idealMaxLink, meshE,
// meshMaxLink, loadInflation}: the same sort on a congestion-tracking
// machine; folding onto a fixed fabric concentrates the same total load
// onto ever fewer physical links, so loadInflation = meshMaxLink /
// idealMaxLink grows with n.
func registerBackendSweeps(reg *harness.Registry, quick bool) {
	ns := pick(quick, []int{256, 1024, 4096}, []int{256, 1024, 4096, 16384, 65536})
	reg.MustRegister(harness.SweepSpec{
		Name:   "bounds/backend-sort",
		Points: len(ns),
		Cost:   costOf(ns, costNSqrtN),
		Point: func(i int, env *harness.Env) []harness.Row {
			n := ns[i]
			vals := workload.Array(workload.Random, n, env.Rng)
			block := backendFoldBlock(n)
			im, _, ih := backendSortRun(machine.Ideal(), n, vals, env)
			mm, _, mh := backendSortRun(machine.Mesh(backendFabricSide, backendFabricSide, block), n, vals, env)
			tm, _, th := backendSortRun(machine.Torus(backendFabricSide, backendFabricSide, block), n, vals, env)
			inflation := float64(im.Energy) / (float64(block) * float64(mm.Energy+2*mm.Messages))
			match := 0.0
			if ih == mh && mh == th {
				match = 1.0
			}
			return harness.One(n, float64(im.Energy), float64(mm.Energy), float64(tm.Energy), inflation, match)
		},
	})

	cgNs := pick(quick, []int{256, 1024, 4096}, []int{256, 1024, 4096, 16384})
	reg.MustRegister(harness.SweepSpec{
		Name:   "bounds/backend-congestion",
		Points: len(cgNs),
		Cost:   costOf(cgNs, costNSqrtN),
		Opts:   []harness.SweepOption{harness.WithCongestion()},
		Point: func(i int, env *harness.Env) []harness.Row {
			n := cgNs[i]
			vals := workload.Array(workload.Random, n, env.Rng)
			block := backendFoldBlock(n)
			im, iLink, _ := backendSortRun(machine.Ideal(), n, vals, env)
			mm, mLink, _ := backendSortRun(machine.Mesh(backendFabricSide, backendFabricSide, block), n, vals, env)
			return harness.One(n, float64(im.Energy), float64(iLink), float64(mm.Energy), float64(mLink),
				float64(mLink)/float64(iLink))
		},
	})
}

// renderBackend renders the finite-hardware backend comparison: the
// Table I sort on the ideal grid vs a folded backendFabricSide² mesh and
// torus, with the provable fold-inflation bound and the answer-invariance
// check from bounds/backend-sort, and the link-load concentration of the
// fixed fabric from bounds/backend-congestion ("-" past its last size).
func renderBackend(p *page) {
	loadInflation := make(map[int]float64)
	for _, r := range p.rows("bounds/backend-congestion") {
		loadInflation[r[0].(int)] = cellF(r[5])
	}
	t := analysis.NewTable("n", "fold block", "ideal energy", "mesh energy", "torus energy",
		"E_i/(f*(E_m+2M))", "link-load inflation", "answers")
	for _, r := range p.rows("bounds/backend-sort") {
		n := r[0].(int)
		load, ok := loadInflation[n]
		if !ok {
			load = math.NaN()
		}
		match := "DIVERGED"
		if cellF(r[5]) == 1 {
			match = "ok"
		}
		t.AddRow(n, backendFoldBlock(n), r[1], r[2], r[3], r[4], load, match)
	}
	p.emit(t)
	fmt.Fprintf(p.Out, "\nfabric: %dx%d physical PEs; fold block scales with the layout side so the layout fills exactly one pane\n",
		backendFabricSide, backendFabricSide)
	fmt.Fprintln(p.Out, "expected shape: E_torus <= E_mesh <= E_ideal <= f*(E_mesh + 2*messages); answers identical on every fabric;")
	fmt.Fprintln(p.Out, "link-load inflation grows with n (the same traffic squeezes through a fixed number of physical links)")
}
