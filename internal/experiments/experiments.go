// Package experiments defines the paper's evaluation — Table I and the
// per-lemma/figure cost comparisons — once, as the named measurement
// sweeps of BoundSweeps (sweeps.go). Two drivers read them:
// internal/bounds fits its machine-checked Θ/O claims to the bounds/*
// sweeps, and cmd/spatialbench renders the experiments below as tables.
// An experiment measures nothing itself: it declares the registered
// sweeps it reads, and Run measures each of them once.
package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"repro/internal/analysis"
	"repro/internal/harness"
	"repro/internal/workload"
)

// Every sweep decomposes into independent measurement points — (problem
// size x algorithm variant) — executed through a harness.Runner: points
// fan out across workers, lease pooled machines (machine.Reset recycles
// the grid in place), and their rows are collected back in point order.
// Each point draws its workload from an RNG seeded by (base seed, sweep
// name, point index), so the rendered tables are byte-identical for any
// -parallel value and show exactly the points the conformance gate
// checks.

// Config carries one rendering's settings: the sweep sizes and the output
// encoding and destination.
type Config struct {
	Quick bool      // the quick registry's smaller problem sizes
	CSV   bool      // emit CSV instead of text tables
	JSON  bool      // emit JSON instead of text tables
	Out   io.Writer // experiment output
}

// Experiment is one named evaluation artifact reproduction: tables
// rendered from the rows of registered sweeps.
type Experiment struct {
	Name     string
	Artifact string // the paper artifact it reproduces
	Desc     string
	Sweeps   []string // the BoundSweeps sweeps its tables read
	render   func(p *page)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table I", "energy/depth/distance scaling of scan, sort, selection, SpMV",
			[]string{"bounds/scan", "bounds/sort", "bounds/selection", "bounds/spmv"}, renderTable1},
		{"collectives", "Lemma IV.1, Cor. IV.2", "broadcast and reduce bounds on h x w subgrids",
			[]string{"bounds/collectives"}, renderCollectives},
		{"scan-ablation", "Fig. 1 / Sec. IV-C", "Z-order scan vs binary-tree scan vs sequential scan",
			[]string{"bounds/scan-ablation"}, renderScanAblation},
		{"reduce-ablation", "Sec. IV-B", "multicast-free reduce vs binary-tree reduce (log-factor energy win)",
			[]string{"bounds/reduce-ablation"}, renderReduceAblation},
		{"sort-ablation", "Fig. 2, Lemmas V.3-V.4, Thm V.8", "2-D mergesort vs bitonic network vs mesh shearsort",
			[]string{"bounds/sort-ablation"}, renderSortAblation},
		{"components", "Lemmas V.5-V.7", "all-pairs sort, rank selection in sorted arrays, 2-D merge bounds",
			[]string{"bounds/all-pairs", "bounds/rank-select", "bounds/merge"}, renderComponents},
		{"lowerbound", "Lemma V.1, Cor. V.2", "permutation energy lower bound and sorting optimality",
			[]string{"lowerbound/permutation", "bounds/lowerbound"}, renderLowerBound},
		{"selection", "Thm VI.3", "randomized selection: linear energy, polylog depth, vs sorting",
			[]string{"bounds/selection-vs-sort"}, renderSelection},
		{"pram", "Lemmas VII.1-VII.2", "EREW and CRCW simulation per-step costs",
			[]string{"pram"}, renderPRAM},
		{"spmv-ablation", "Thm VIII.2 / Sec. VIII", "direct SpMV vs PRAM-simulated SpMV across matrix families",
			[]string{"spmv-ablation/direct", "bounds/spmv-vs-pram"}, renderSpMVAblation},
		{"treefix", "Sec. II-A vs [38]", "Euler-tour treefix sums at Theta(n) energy vs the tree-scan baseline",
			[]string{"bounds/treefix"}, renderTreefix},
		{"depth-scaling", "Table I depth column", "fitted polylog degrees of depth for all four primitives",
			[]string{"bounds/scan", "bounds/selection", "bounds/sort", "bounds/spmv"}, renderDepthScaling},
		{"congestion", "extension", "max per-link load (XY routing) of scans, sorts and broadcast",
			[]string{"congestion"}, renderCongestion},
		{"graph", "composed workloads", "BFS, connected components, PageRank, triangles on the primitives",
			[]string{"bounds/graph-bfs", "bounds/graph-cc", "bounds/graph-pagerank", "bounds/graph-triangles"}, renderGraph},
		{"backend", "extension", "Table I sort folded onto finite mesh/torus fabrics: energy, inflation bound, link load",
			[]string{"bounds/backend-sort", "bounds/backend-congestion"}, renderBackend},
	}
}

// ByName returns the named experiment.
func ByName(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run renders exps in order, each under a header. The sweeps they read
// are all enqueued on r before the first table is rendered, each once
// however many experiments read it, so they overlap on the runner's pool
// the way bounds.Check overlaps the sweeps of its claims.
func Run(r *harness.Runner, cfg Config, exps ...Experiment) {
	reg := BoundSweeps(cfg.Quick)
	p := &page{Config: cfg, sweeps: make(map[string]*harness.Sweep)}
	for _, e := range exps {
		for _, name := range e.Sweeps {
			if p.sweeps[name] != nil {
				continue
			}
			s, err := reg.Go(r, name)
			if err != nil {
				panic(err) // All declares registered sweeps only (TestDeclaredSweepsResolve)
			}
			p.sweeps[name] = s
		}
	}
	for _, e := range exps {
		fmt.Fprintf(cfg.Out, "=== %s — %s ===\n%s\n\n", e.Name, e.Artifact, e.Desc)
		p.declared = e.Sweeps
		e.render(p)
		fmt.Fprintln(cfg.Out)
	}
}

// page is what a renderer writes to: the output settings plus the sweeps
// its experiment declared.
type page struct {
	Config
	sweeps   map[string]*harness.Sweep
	declared []string
}

// rows waits for the named sweep and returns its rows in point order.
func (p *page) rows(sweep string) []harness.Row {
	if !slices.Contains(p.declared, sweep) {
		panic("experiments: renderer reads undeclared sweep " + sweep)
	}
	return p.sweeps[sweep].Rows()
}

func (p *page) emit(t *analysis.Table) {
	switch {
	case p.JSON:
		fmt.Fprint(p.Out, t.JSON())
	case p.CSV:
		fmt.Fprint(p.Out, t.CSV())
	default:
		fmt.Fprint(p.Out, t.String())
	}
}

func sizes(quick bool, full ...int) []int {
	if quick && len(full) > 2 {
		return full[:len(full)-1]
	}
	return full
}

// addRows copies sweep rows into the table in point order.
func addRows(t *analysis.Table, rows []harness.Row) {
	for _, r := range rows {
		t.AddRow(r...)
	}
}

// cellF reads a numeric cell back out of a sweep row (the fits and ratios
// reuse the same values the tables print).
func cellF(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case float64:
		return x
	}
	panic(fmt.Sprintf("experiments: non-numeric cell %T", v))
}

// cellI renders an integral cell that a sweep stores as float64 (depths,
// distances) the way the machine reports it.
func cellI(v any) int64 { return int64(cellF(v)) }

// colPoints extracts (rows[i][nCol], rows[i][costCol]) as fit points.
func colPoints(rows []harness.Row, nCol, costCol int) []analysis.Point {
	pts := make([]analysis.Point, len(rows))
	for i, r := range rows {
		pts[i] = analysis.Point{N: cellF(r[nCol]), Cost: cellF(r[costCol])}
	}
	return pts
}

// ---------------------------------------------------------------- table1 --

// renderTable1 reproduces Table I: for each primitive, energy/depth/
// distance over n, the fitted scaling exponents and their comparison with
// the paper's Theta bounds.
func renderTable1(p *page) {
	prims := []string{"scan", "sort", "selection", "spmv"}
	t := analysis.NewTable("problem", "n", "energy", "depth", "distance")
	eFit := make([]float64, len(prims))
	dTail := make([]float64, len(prims))
	for i, name := range prims {
		rows := p.rows("bounds/" + name)
		for _, r := range rows {
			t.AddRow(append(harness.Row{name}, r...)...)
		}
		eFit[i] = analysis.FitExponent(colPoints(rows, 0, 1))
		// The distance metric converges slowly (additive O(sqrt n) terms
		// with large constants dominate small sizes), so the tail exponent
		// is the honest estimate.
		dTail[i] = analysis.TailExponent(colPoints(rows, 0, 3))
	}

	p.emit(t)
	fmt.Fprintln(p.Out)
	v := analysis.NewTable("problem", "paper energy", "measured exp", "verdict", "paper distance", "tail exp", "verdict")
	v.AddRow("scan", "Theta(n)", eFit[0], analysis.Verdict(eFit[0], 1.0, 0.15), "Theta(sqrt n)", dTail[0], analysis.Verdict(dTail[0], 0.5, 0.3))
	v.AddRow("sort", "Theta(n^1.5)", eFit[1], analysis.Verdict(eFit[1], 1.5, 0.25), "Theta(sqrt n)", dTail[1], analysis.Verdict(dTail[1], 0.5, 0.3))
	v.AddRow("selection", "Theta(n)", eFit[2], analysis.Verdict(eFit[2], 1.0, 0.2), "Theta(sqrt n)", dTail[2], analysis.Verdict(dTail[2], 0.5, 0.3))
	v.AddRow("spmv", "Theta(m^1.5)", eFit[3], analysis.Verdict(eFit[3], 1.5, 0.25), "Theta(sqrt m)", dTail[3], analysis.Verdict(dTail[3], 0.5, 0.3))
	fmt.Fprint(p.Out, v.String())
	fmt.Fprintln(p.Out, "\ndepth values above are O(log n), O(log^3 n), O(log^2 n), O(log^3 n) respectively (polylog; see the per-experiment sections);")
	fmt.Fprintln(p.Out, "distance uses the tail exponent — additive O(sqrt n) terms with large constants dominate the small end of the sweep")
}

// ----------------------------------------------------------- collectives --

// renderCollectives validates Lemma IV.1 / Corollary IV.2 on square,
// column and general h x w subgrids: energy within a constant of
// hw + h log h, logarithmic depth, O(h + w) distance.
func renderCollectives(p *page) {
	t := analysis.NewTable("op", "h", "w", "energy", "hw+h*log(h)", "ratio", "depth", "distance")
	for _, r := range p.rows("bounds/collectives") {
		h, w := r[3], r[4]
		bound := collectivesBound(h.(int), w.(int))
		t.AddRow("broadcast", h, w, r[5], bound, r[1], r[6], r[7])
		t.AddRow("reduce", h, w, r[8], bound, r[2], r[9], r[10])
	}
	p.emit(t)
}

// ---------------------------------------------------------- scan ablation --

// renderScanAblation compares the three scan designs of Section IV-C. The
// Z-order scan must match the sequential scan's Theta(n) energy while
// keeping the tree scan's O(log n) depth; the tree scan pays an extra
// Theta(log n) energy factor.
func renderScanAblation(p *page) {
	t := analysis.NewTable("n", "zorder energy", "tree energy", "seq energy", "tree/zorder", "zorder depth", "tree depth", "seq depth")
	for _, r := range p.rows("bounds/scan-ablation") {
		t.AddRow(r[0], r[1], r[2], r[3], cellF(r[2])/cellF(r[1]), r[4], r[5], r[6])
	}
	p.emit(t)
	fmt.Fprintln(p.Out, "\nexpected shape: tree/zorder ratio grows ~log n; zorder and seq energies stay within a constant; seq depth = n-1")
}

// -------------------------------------------------------- reduce ablation --

func renderReduceAblation(p *page) {
	t := analysis.NewTable("n", "2D reduce energy", "tree reduce energy", "ratio", "2D depth", "tree depth")
	for _, r := range p.rows("bounds/reduce-ablation") {
		t.AddRow(r[0], r[1], r[2], cellF(r[2])/cellF(r[1]), r[3], r[4])
	}
	p.emit(t)
	fmt.Fprintln(p.Out, "\nexpected shape: ratio grows ~log n (Section IV-B's Theta(log n) energy improvement at equal O(log n) depth)")
}

// ---------------------------------------------------------- sort ablation --

// renderSortAblation is the sorting comparison behind Figure 2 and
// Section V-C's discussion: bitonic pays a log-factor more energy than
// mergesort asymptotically (normalized energies diverge), and the mesh
// baseline pays polynomial depth.
func renderSortAblation(p *page) {
	rows := p.rows("bounds/sort-ablation")
	t := analysis.NewTable("n", "merge energy", "bitonic energy", "mesh energy",
		"merge E/n^1.5", "bitonic E/n^1.5", "merge depth", "bitonic depth", "mesh depth")
	for _, r := range rows {
		n15 := cellF(r[0]) * math.Sqrt(cellF(r[0]))
		t.AddRow(r[0], r[1], r[2], r[3], cellF(r[1])/n15, cellF(r[2])/n15, cellI(r[4]), cellI(r[5]), cellI(r[6]))
	}
	p.emit(t)
	fmt.Fprintf(p.Out, "\nmergesort energy exponent: %.3f (paper: 1.5)   bitonic energy exponent: %.3f (paper: 1.5 + log factor)\n",
		analysis.FitExponent(colPoints(rows, 0, 1)), analysis.FitExponent(colPoints(rows, 0, 2)))
	fmt.Fprintln(p.Out, "expected shape: bitonic E/n^1.5 grows with n while mergesort E/n^1.5 falls toward a constant; mesh depth ~ sqrt(n) log n vs polylog for the others")
}

// ------------------------------------------------------------- components --

// renderComponents shows the component lemmas: All-Pairs Sort (Lemma V.5,
// O(n^{5/2}) energy, O(log n) depth), rank selection in two sorted arrays
// (Lemma V.6) and the 2-D merge (Lemma V.7, O(n^{3/2}) energy, O(log^2 n)
// depth).
func renderComponents(p *page) {
	parts := []struct{ sweep, label, paper string }{
		{"bounds/all-pairs", "all-pairs", "2.5"},
		{"bounds/rank-select", "rank-select", "<= 1.25"},
		{"bounds/merge", "merge", "1.5"},
	}
	for i, c := range parts {
		rows := p.rows(c.sweep)
		t := analysis.NewTable(c.label+" n", "energy", "depth", "distance")
		addRows(t, rows)
		p.emit(t)
		fmt.Fprintf(p.Out, "%s energy exponent: %.3f (paper: %s)\n", c.label, analysis.FitExponent(colPoints(rows, 0, 1)), c.paper)
		if i < len(parts)-1 {
			fmt.Fprintln(p.Out)
		}
	}
}

// -------------------------------------------------------------- lowerbound --

func renderLowerBound(p *page) {
	t := analysis.NewTable("n", "permutation", "energy", "energy/n^1.5")
	addRows(t, p.rows("lowerbound/permutation"))
	p.emit(t)

	// Sorting a reversal-permuted input must cost within a constant of the
	// permutation itself (Corollary V.2: the mergesort is energy-optimal).
	fmt.Fprintln(p.Out)
	c := analysis.NewTable("n", "reversal energy", "mergesort-on-reversed energy", "sort/permutation")
	for _, r := range p.rows("bounds/lowerbound") {
		c.AddRow(r[0], r[3], r[4], r[2])
	}
	p.emit(c)
	fmt.Fprintln(p.Out, "\nexpected shape: reversal ~ n^1.5/2; identity = 0; sort/permutation ratio bounded (sorting is energy-optimal up to constants)")
}

// --------------------------------------------------------------- selection --

func renderSelection(p *page) {
	rows := p.rows("bounds/selection-vs-sort")
	t := analysis.NewTable("n", "select energy", "sort energy", "sort/select", "select depth", "select energy/n")
	for _, r := range rows {
		t.AddRow(r[0], r[1], r[2], cellF(r[2])/cellF(r[1]), r[3], cellF(r[1])/cellF(r[0]))
	}
	p.emit(t)
	fmt.Fprintf(p.Out, "\nselection energy exponent: %.3f (paper: 1.0) — the sort/select gap grows ~sqrt(n) (polynomial separation, Section VI)\n",
		analysis.FitExponent(colPoints(rows, 0, 1)))
}

// -------------------------------------------------------------------- pram --

func renderPRAM(p *page) {
	t := analysis.NewTable("mode", "p", "energy/step", "depth/step", "p*(sqrt p + sqrt m)", "energy ratio")
	addRows(t, p.rows("pram"))
	p.emit(t)
	fmt.Fprintln(p.Out, "\nexpected shape: energy/step within a constant of p(sqrt p + sqrt m); EREW depth/step O(1); CRCW depth/step polylog(p)")
}

// ----------------------------------------------------------- spmv ablation --

func renderSpMVAblation(p *page) {
	rows := p.rows("spmv-ablation/direct")
	t := analysis.NewTable("matrix", "n", "nnz", "direct energy", "direct depth", "direct distance")
	addRows(t, rows)
	var ePts []analysis.Point
	for _, r := range rows {
		if r[0] == string(workload.MatUniform) {
			ePts = append(ePts, analysis.Point{N: cellF(r[2]), Cost: cellF(r[3])})
		}
	}
	p.emit(t)
	fmt.Fprintf(p.Out, "\ndirect spmv energy exponent in nnz (uniform): %.3f (paper: 1.5)\n\n", analysis.FitExponent(ePts))

	c := analysis.NewTable("n", "nnz", "direct depth", "pram depth", "direct distance", "pram distance", "direct energy", "pram energy")
	for _, r := range p.rows("bounds/spmv-vs-pram") {
		c.AddRow(r[0], r[5], cellI(r[1]), cellI(r[2]), cellI(r[3]), cellI(r[4]), r[6], r[7])
	}
	p.emit(c)
	fmt.Fprintln(p.Out, "\nexpected shape: direct wins depth and distance by a growing (log) factor; energies within constants of each other")
}

// ---------------------------------------------------------------- treefix --

// renderTreefix quantifies the Section II-A comparison against the spatial
// tree algorithms [38]: their treefix sums take Theta(n log n) energy even
// on a path; the Euler-tour + energy-optimal-scan route costs Theta(n) for
// any tree shape. The binary-tree scan stands in for the [38] path
// baseline.
func renderTreefix(p *page) {
	t := analysis.NewTable("n", "treefix(path) E", "treefix(balanced) E", "tree-scan baseline E", "baseline/treefix", "treefix depth")
	for _, r := range p.rows("bounds/treefix") {
		t.AddRow(r[0], r[1], r[2], r[3], cellF(r[3])/cellF(r[1]), r[4])
	}
	p.emit(t)
	fmt.Fprintln(p.Out, "\nexpected shape: treefix energy linear in n for both shapes; the baseline/treefix ratio grows ~log n")
	fmt.Fprintln(p.Out, "(the Euler tour doubles the scanned elements, so the ratio starts below 1; the fitted crossover lies")
	fmt.Fprintln(p.Out, "beyond the measured sizes, see the sec-ii-a/treefix-vs-tree-scan-crossover claim)")
}

// ---------------------------------------------------------- depth scaling --

// renderDepthScaling fits the polylog degree c of depth ~ (log n)^c for
// each primitive — the depth column of Table I — and lists the depth's
// growth ratio between consecutive sizes (each sweep quadruples n). Paper
// targets: scan 1, selection 2, sort 3, spmv 3 (upper bounds; measured
// degrees land at or below them).
func renderDepthScaling(p *page) {
	prims := []struct{ name, paper string }{
		{"scan", "O(log n)"}, {"selection", "O(log^2 n)"}, {"sort", "O(log^3 n)"}, {"spmv", "O(log^3 n)"},
	}
	t := analysis.NewTable("problem", "paper depth", "measured polylog degree", "depth series", "growth per 4x n")
	for _, pr := range prims {
		rows := p.rows("bounds/" + pr.name)
		var series, growth []string
		for i, r := range rows {
			series = append(series, fmt.Sprint(cellI(r[2])))
			if i > 0 {
				growth = append(growth, fmt.Sprintf("%.2f", cellF(r[2])/cellF(rows[i-1][2])))
			}
		}
		t.AddRow(pr.name, pr.paper, analysis.FitLogExponent(colPoints(rows, 0, 2)),
			strings.Join(series, " "), strings.Join(growth, " "))
	}
	p.emit(t)
	fmt.Fprintln(p.Out, "\ndiscriminating check: a polylog depth has per-quadrupling growth ratios (last column) that *decline*")
	fmt.Fprintln(p.Out, "toward 1 (selection's are noisy at these sizes: its pivots are random), whereas any polynomial n^c")
	fmt.Fprintln(p.Out, "keeps a constant ratio 4^c (the mesh sort's depth in sort-ablation). Fitted degrees overshoot the")
	fmt.Fprintln(p.Out, "paper's upper bounds on short sweeps because of additive lower-order terms; the ratios are the evidence.")
}

// ------------------------------------------------------------ congestion --

// renderCongestion is an extension experiment: energy is the *total*
// network load; this shows the *maximum* per-link load under
// dimension-ordered routing, comparing the scan designs and the two
// sorters. The locality of the Z-order scan shows up as near-flat link
// load, while the tree scan funnels traffic through the middle of the
// row-major layout.
func renderCongestion(p *page) {
	t := analysis.NewTable("algorithm", "n", "energy", "max link load", "load/sqrt(n)")
	addRows(t, p.rows("congestion"))
	p.emit(t)
	fmt.Fprintln(p.Out, "\nextension beyond the paper's metrics: max per-link load under XY routing (energy is the total load)")
}

func log2f(x int) float64 {
	l := 0.0
	for s := x; s > 1; s /= 2 {
		l++
	}
	return l
}

func sqrtf(n int) float64 { return math.Sqrt(float64(n)) }
