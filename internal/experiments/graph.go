package experiments

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/analysis"
	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/zorder"
)

// The graph-analytics suite: BFS, connected components, PageRank and
// triangle counting composed from the Table I primitives (segmented scan,
// merge sort, treefix, SpMV, sorting networks), measured over two
// synthetic families with opposite diameters — the 2D mesh (diameter
// Θ(√n)) and an RMAT-ish power-law graph (diameter O(log n) whp) by the
// bounds/graph-* sweeps, which the spatialbench "graph" table renders;
// the power-law family draws from the point's FNV-seeded RNG, so rows
// stay byte-identical at any -parallel/-shards/-batch.

// graphPageRankIters fixes the power-iteration count: enough to damp the
// uniform start visibly, few enough that one point stays sweep-affordable.
const graphPageRankIters = 4

func equalFloatsTol(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// measureGraph runs one algorithm on g and checks its answer against the
// host reference: BFS levels from vertex 0, min-label components,
// PageRank (to float tolerance: the on-grid sums associate along the scan
// tree) and the triangle count. A mismatch panics, so every sweep run
// (conformance included) is also a correctness gate.
func measureGraph(algo string, g *graph.Graph, family string, n int, env *harness.Env) machine.Metrics {
	var ok bool
	mm := env.Measure(func(m *machine.Machine) {
		var err error
		switch algo {
		case "bfs":
			var levels []int
			if levels, err = graph.BFS(m, g, 0); err == nil {
				ok = slices.Equal(levels, graph.HostBFS(g, 0))
			}
		case "cc":
			var labels []int
			if labels, _, err = graph.Components(m, g); err == nil {
				ok = slices.Equal(labels, graph.HostComponents(g))
			}
		case "pagerank":
			var pr []float64
			if pr, err = graph.PageRank(m, g, 0.85, graphPageRankIters, grid.TrackZOrder); err == nil {
				ok = equalFloatsTol(pr, graph.HostPageRank(g, 0.85, graphPageRankIters), 1e-9)
			}
		case "triangles":
			var count int64
			if count, err = graph.Triangles(m, g); err == nil {
				ok = count == graph.HostTriangles(g)
			}
		default:
			panic("experiments: unknown graph algorithm " + algo)
		}
		if err != nil {
			panic(err)
		}
	})
	if !ok {
		panic(fmt.Sprintf("experiments: graph/%s on-grid result diverges from host reference (%s, n=%d)", algo, family, n))
	}
	return mm
}

// graphSweepSizes are the per-algorithm vertex counts (perfect squares, so
// the mesh family is exact). CC and PageRank re-sort the edge grid every
// round/iteration, so their full tails stop earlier than BFS's.
func graphSweepSizes(quick bool) map[string][]int {
	return map[string][]int{
		"bfs":       pick(quick, []int{64, 256, 1024}, []int{64, 256, 1024, 4096, 16384}),
		"cc":        pick(quick, []int{64, 256, 1024}, []int{64, 256, 1024, 4096}),
		"pagerank":  pick(quick, []int{64, 256, 1024}, []int{64, 256, 1024, 4096}),
		"triangles": pick(quick, []int{64, 256, 1024}, []int{64, 256, 1024, 4096, 16384}),
	}
}

// graphPoint measures one algorithm at size n on both families and emits
// the graph sweep row {n, meshE, meshD, rmatE, rmatD}.
func graphPoint(algo string, n int, env *harness.Env) []harness.Row {
	mesh := graph.Mesh2D(zorder.Sqrt(n)) // every graph sweep size is a perfect square
	rmat := graph.PowerLaw(n, env.Rng)
	mm := measureGraph(algo, mesh, "mesh", n, env)
	rm := measureGraph(algo, rmat, "power-law", n, env)
	return harness.One(n, float64(mm.Energy), float64(mm.Depth), float64(rm.Energy), float64(rm.Depth))
}

// graphCost approximates a point's message volume for scheduler hints:
// all four algorithms are dominated by Θ(m^1.5)-class sorting over the
// edge grid, with CC and PageRank repeating it per round/iteration.
func graphCost(algo string) func(n int) float64 {
	switch algo {
	case "cc":
		return func(n int) float64 { return costNSqrtN(2*n) * log2f(n) }
	case "pagerank":
		return func(n int) float64 { return costNSqrtN(2*n) * graphPageRankIters }
	case "triangles":
		return func(n int) float64 { return costNSqrtN(4*n) * log2f(n) }
	}
	return costNSqrtN
}

// registerGraphSweeps adds the bounds/graph-* sweeps to the registry. Row
// shape: {n, meshE, meshD, rmatE, rmatD}.
func registerGraphSweeps(reg *harness.Registry, quick bool) {
	sizesByAlgo := graphSweepSizes(quick)
	for _, algo := range []string{"bfs", "cc", "pagerank", "triangles"} {
		algo := algo
		ns := sizesByAlgo[algo]
		reg.MustRegister(harness.SweepSpec{
			Name:   "bounds/graph-" + algo,
			Points: len(ns),
			Cost:   costOf(ns, graphCost(algo)),
			Point: func(i int, env *harness.Env) []harness.Row {
				return graphPoint(algo, ns[i], env)
			},
		})
	}
}

// renderGraph renders the graph-analytics suite: per-algorithm energy and
// depth on both families, the fitted energy exponents and the growth
// class of each depth series.
func renderGraph(p *page) {
	algos := []string{"bfs", "cc", "pagerank", "triangles"}
	t := analysis.NewTable("algorithm", "n", "mesh energy", "mesh depth", "power-law energy", "power-law depth")
	v := analysis.NewTable("algorithm", "mesh E exp", "power-law E exp", "mesh depth growth", "power-law depth growth")
	for _, algo := range algos {
		rows := p.rows("bounds/graph-" + algo)
		for _, r := range rows {
			t.AddRow(append(harness.Row{algo}, r...)...)
		}
		v.AddRow(algo, analysis.FitExponent(colPoints(rows, 0, 1)), analysis.FitExponent(colPoints(rows, 0, 3)),
			analysis.ClassifyGrowth(colPoints(rows, 0, 2)).String(),
			analysis.ClassifyGrowth(colPoints(rows, 0, 4)).String())
	}
	p.emit(t)

	fmt.Fprintln(p.Out)
	fmt.Fprint(p.Out, v.String())
	fmt.Fprintln(p.Out, "\ndepth provenance: BFS chains one segmented scan per level (mesh depth ~ sqrt(n) log n, power-law ~ log^2 n);")
	fmt.Fprintln(p.Out, "CC chains O(log n) rounds of sort+scan+treefix (polylog); PageRank chains SpMV iterations (polylog);")
	fmt.Fprintln(p.Out, "triangles is one bitonic pass over edges+wedges (log^2 of the record count). Every measurement is")
	fmt.Fprintln(p.Out, "verified against a host reference inside the sweep, and depth witnesses are re-derived per")
	fmt.Fprintln(p.Out, "measurement under -cpcheck, which replays every PE's clock from the event stream.")
}
