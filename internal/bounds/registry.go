package bounds

// TableIPrimitives and TableIMetrics enumerate the headline result's rows
// and columns; the registry must cover their full cross product (pinned by
// TestRegistryCoversTableI).
var (
	TableIPrimitives = []string{"scan", "sort", "selection", "spmv"}
	TableIMetrics    = []Metric{Energy, Depth, Distance}
)

// Registry returns every machine-checked claim, in report order. IDs are
// stable: "table1/<primitive>/<metric>" for the headline rows,
// "<artifact>/<claim>" for the lemma- and section-level statements.
//
// Tolerances are calibrated against the recorded full-sweep measurements
// in EXPERIMENTS.md *and* the smaller -quick sweeps (CI runs quick): wide
// enough to absorb finite-size effects that are documented there (energy
// fits approach 1.5 from below, distance converges from above), tight
// enough that a broken algorithm or cost model trips them.
func Registry() []Claim {
	var claims []Claim

	// --- Table I: energy exponents (least-squares over the full sweep).
	claims = append(claims,
		Claim{ID: "table1/scan/energy", Source: "Table I / Lemma IV.3", Primitive: "scan", Metric: Energy,
			Stated: "Theta(n)", Kind: Exponent, Sweep: "bounds/scan", Col: 1, Want: 1.0, Tol: 0.15},
		Claim{ID: "table1/sort/energy", Source: "Table I / Theorem V.8", Primitive: "sort", Metric: Energy,
			Stated: "Theta(n^1.5)", Kind: Exponent, Sweep: "bounds/sort", Col: 1, Want: 1.5, Tol: 0.25},
		Claim{ID: "table1/selection/energy", Source: "Table I / Theorem VI.3", Primitive: "selection", Metric: Energy,
			Stated: "Theta(n)", Kind: Exponent, Sweep: "bounds/selection", Col: 1, Want: 1.0, Tol: 0.2},
		Claim{ID: "table1/spmv/energy", Source: "Table I / Theorem VIII.2", Primitive: "spmv", Metric: Energy,
			Stated: "Theta(m^1.5)", Kind: Exponent, Sweep: "bounds/spmv", Col: 1, Want: 1.5, Tol: 0.25},
	)

	// --- Table I: depth is polylogarithmic. Degree fits overshoot the
	// paper's upper bounds on short sweeps (additive lower-order terms), so
	// the gate is the polylog-vs-polynomial growth discriminator.
	for _, p := range []struct{ prim, sweep, stated, src string }{
		{"scan", "bounds/scan", "O(log n)", "Table I / Lemma IV.3"},
		{"sort", "bounds/sort", "O(log^3 n)", "Table I / Theorem V.8"},
		{"selection", "bounds/selection", "O(log^2 n)", "Table I / Theorem VI.3"},
		{"spmv", "bounds/spmv", "O(log^3 n)", "Table I / Theorem VIII.2"},
	} {
		claims = append(claims, Claim{
			ID: "table1/" + p.prim + "/depth", Source: p.src, Primitive: p.prim, Metric: Depth,
			Stated: p.stated, Kind: Polylog, Sweep: p.sweep, Col: 2,
		})
	}

	// --- Table I: distance tail exponents. The additive O(√n)-per-level
	// terms decay slowly, so the tail slope is the estimator (EXPERIMENTS.md
	// records tails 0.47–0.65 falling toward 0.5).
	for _, p := range []struct{ prim, sweep, src string }{
		{"scan", "bounds/scan", "Table I / Lemma IV.3"},
		{"sort", "bounds/sort", "Table I / Theorem V.8"},
		{"selection", "bounds/selection", "Table I / Theorem VI.3"},
		{"spmv", "bounds/spmv", "Table I / Theorem VIII.2"},
	} {
		claims = append(claims, Claim{
			ID: "table1/" + p.prim + "/distance", Source: p.src, Primitive: p.prim, Metric: Distance,
			Stated: "Theta(sqrt n)", Kind: TailExponent, Sweep: p.sweep, Col: 3, Want: 0.5, Tol: 0.35,
		})
	}

	// --- Lemma IV.1 / Cor. IV.2: broadcast and reduce energy within a
	// constant of hw + h·log h on every tested subgrid shape.
	claims = append(claims,
		Claim{ID: "lemma-iv1/broadcast-within-constant", Source: "Lemma IV.1", Primitive: "broadcast", Metric: Energy,
			Stated: "O(hw + h log h)", Kind: ValueBounded, Sweep: "bounds/collectives", Col: 1, Lo: 0.3, Hi: 2.5},
		Claim{ID: "lemma-iv1/reduce-within-constant", Source: "Cor. IV.2", Primitive: "reduce", Metric: Energy,
			Stated: "O(hw + h log h)", Kind: ValueBounded, Sweep: "bounds/collectives", Col: 2, Lo: 0.3, Hi: 2.5},
	)

	// --- Sec. IV-B: the binary-tree reduce pays a growing Θ(log n) energy
	// factor over the multicast-free 2-D reduce.
	claims = append(claims, Claim{
		ID: "sec-iv-b/tree-reduce-log-penalty", Source: "Sec. IV-B", Primitive: "reduce", Metric: Derived,
		Stated: "Theta(log n) energy separation", Kind: RatioGrows, Sweep: "bounds/reduce-ablation",
		Col: 2, Den: 1, MinGain: 0.3,
	})

	// --- Sec. IV-C (Fig. 1): the scan design-space triangle.
	claims = append(claims,
		Claim{ID: "sec-iv-c/tree-scan-log-penalty", Source: "Sec. IV-C / Fig. 1", Primitive: "scan", Metric: Derived,
			Stated: "Theta(log n) energy separation", Kind: RatioGrows, Sweep: "bounds/scan-ablation",
			Col: 2, Den: 1, MinGain: 0.3},
		Claim{ID: "sec-iv-c/zorder-scan-energy-optimal", Source: "Sec. IV-C / Lemma IV.3", Primitive: "scan", Metric: Derived,
			Stated: "Theta(n): within a constant of the sequential scan", Kind: ValueBounded, Sweep: "bounds/scan-ablation",
			Col: 1, Den: 3, Lo: 1.0, Hi: 3.5},
		// Large-n tail: unlike the sorting comparison there is no
		// constants-vs-asymptotics tension here — the Z-order scan beats
		// the [38]-style binary-tree scan outright at every size, and the
		// full sweeps now pin that ordering beyond n = 65 536 up to 2^20.
		Claim{ID: "sec-iv-c/zorder-dominates-tree-scan", Source: "Sec. IV-C / Fig. 1", Primitive: "scan", Metric: Derived,
			Stated: "Theta(n) < tree scan's Theta(n log n) at every measured size", Kind: Dominates, Sweep: "bounds/scan-ablation",
			Col: 1, Den: 2},
	)

	// --- Sorting comparison (Fig. 2, Lemmas V.3/V.4, Thm V.8).
	claims = append(claims,
		Claim{ID: "lemma-v4/bitonic-log-penalty", Source: "Lemma V.4 / Fig. 2", Primitive: "sort-bitonic", Metric: Derived,
			Stated: "Theta(n^1.5 log n): E/n^1.5 grows", Kind: RatioGrows, Sweep: "bounds/sort-ablation",
			Col: 2, DivPow: 1.5, MinGain: 1.0},
		Claim{ID: "thm-v8/mergesort-normalized-bounded", Source: "Theorem V.8", Primitive: "sort", Metric: Derived,
			Stated: "Theta(n^1.5): E/n^1.5 bounded", Kind: ValueBounded, Sweep: "bounds/sort-ablation",
			Col: 1, DivPow: 1.5, Lo: 10, Hi: 80},
		Claim{ID: "fig2/bitonic-wins-depth", Source: "Fig. 2 / Lemma V.4", Primitive: "sort-bitonic", Metric: Depth,
			Stated: "O(log^2 n) < mergesort's O(log^3 n) at measured sizes", Kind: Dominates, Sweep: "bounds/sort-ablation",
			Col: 5, Den: 4},
		Claim{ID: "fig2/sort-energy-crossover", Source: "Fig. 2 / Sec. V-C", Primitive: "sort", Metric: Derived,
			Stated: "mergesort overtakes bitonic only beyond the measured range", Kind: CrossoverBeyond, Sweep: "bounds/sort-ablation",
			Col: 1, Den: 2},
		Claim{ID: "sec-ii-b/mesh-depth-polynomial", Source: "Sec. II-B", Primitive: "sort-mesh", Metric: Depth,
			Stated: "Theta(sqrt n log n): polynomial, not polylog", Kind: Polynomial, Sweep: "bounds/sort-ablation",
			Col: 6},
		// Large-n tail: the mesh sort's smaller constants keep it ahead of
		// the energy-optimal mergesort through the measured range (now up
		// to n = 65 536); the mergesort's slower Theta(n^1.5) growth wins
		// beyond the fitted crossover (~2^19 by the full-sweep fits).
		Claim{ID: "fig2/mesh-vs-mergesort-crossover", Source: "Fig. 2 / Sec. II-B", Primitive: "sort", Metric: Derived,
			Stated: "mergesort overtakes the mesh sort only beyond the measured range", Kind: CrossoverBeyond, Sweep: "bounds/sort-ablation",
			Col: 1, Den: 3},
	)

	// --- Large-n sorting-network tail (bounds/sortnet-large): the same
	// Lemma V.4 / Sec. II-B statements re-checked where they bite hardest,
	// on the dedicated sweep that reaches n = 2^20 (the counting-only fast
	// path makes those points affordable; see the sweep's comment). Kept
	// separate from the bounds/sort-ablation claims so the small-n rows the
	// crossover claims were calibrated on stay untouched.
	claims = append(claims,
		Claim{ID: "lemma-v4/bitonic-log-penalty-large", Source: "Lemma V.4 / Fig. 2", Primitive: "sort-bitonic", Metric: Derived,
			Stated: "Theta(n^1.5 log n): E/n^1.5 still growing at n=2^20", Kind: RatioGrows, Sweep: "bounds/sortnet-large",
			Col: 1, DivPow: 1.5, MinGain: 0.5},
		Claim{ID: "sec-ii-b/mesh-energy-log-large", Source: "Sec. II-B", Primitive: "sort-mesh", Metric: Derived,
			Stated: "Theta(n^1.5 log n): E/n^1.5 still growing at n=2^20", Kind: RatioGrows, Sweep: "bounds/sortnet-large",
			Col: 2, DivPow: 1.5, MinGain: 0.5},
		Claim{ID: "lemma-v4/bitonic-depth-polylog-large", Source: "Lemma V.4", Primitive: "sort-bitonic", Metric: Depth,
			Stated: "O(log^2 n): polylog through n=2^20", Kind: Polylog, Sweep: "bounds/sortnet-large",
			Col: 3},
		Claim{ID: "sec-ii-b/mesh-depth-polynomial-large", Source: "Sec. II-B", Primitive: "sort-mesh", Metric: Depth,
			Stated: "Theta(sqrt n log n): polynomial through n=2^20", Kind: Polynomial, Sweep: "bounds/sortnet-large",
			Col: 4},
		Claim{ID: "fig2/bitonic-wins-depth-large", Source: "Fig. 2 / Lemma V.4", Primitive: "sort-bitonic", Metric: Depth,
			Stated: "O(log^2 n) beats the mesh's polynomial depth at n=2^20", Kind: Dominates, Sweep: "bounds/sortnet-large",
			Col: 3, Den: 4},
	)

	// --- Lemma V.1 / Cor. V.2: the permutation lower bound and sorting's
	// energy-optimality.
	claims = append(claims,
		Claim{ID: "lemma-v1/reversal-energy-floor", Source: "Lemma V.1", Primitive: "permute", Metric: Energy,
			Stated: "Omega(n^1.5): reversal costs ~1.0·n^1.5", Kind: ValueBounded, Sweep: "bounds/lowerbound",
			Col: 1, Lo: 0.9, Hi: 1.1},
		Claim{ID: "cor-v2/sort-within-constant-of-permute", Source: "Cor. V.2", Primitive: "sort", Metric: Derived,
			Stated: "sorting energy-optimal up to constants", Kind: ValueBounded, Sweep: "bounds/lowerbound",
			Col: 2, Lo: 5, Hi: 60},
	)

	// --- Component lemmas V.5–V.7 (energy upper bounds).
	claims = append(claims,
		Claim{ID: "lemma-v5/all-pairs-energy", Source: "Lemma V.5", Primitive: "all-pairs-sort", Metric: Energy,
			Stated: "O(n^2.5)", Kind: ExponentAtMost, Sweep: "bounds/all-pairs", Col: 1, Want: 2.5, Tol: 0.1},
		Claim{ID: "lemma-v6/rank-select-energy", Source: "Lemma V.6", Primitive: "rank-select", Metric: Energy,
			Stated: "O(n^1.25)", Kind: ExponentAtMost, Sweep: "bounds/rank-select", Col: 1, Want: 1.25, Tol: 0.1},
		Claim{ID: "lemma-v7/merge-energy", Source: "Lemma V.7", Primitive: "merge", Metric: Energy,
			Stated: "O(n^1.5)", Kind: ExponentAtMost, Sweep: "bounds/merge", Col: 1, Want: 1.5, Tol: 0.1},
	)

	// --- Theorem VI.3: selection beats sorting by a growing polynomial gap.
	claims = append(claims,
		Claim{ID: "thm-vi3/select-wins-energy", Source: "Theorem VI.3 / Sec. VI", Primitive: "selection", Metric: Energy,
			Stated: "Theta(n) < sorting's Theta(n^1.5)", Kind: Dominates, Sweep: "bounds/selection-vs-sort",
			Col: 1, Den: 2},
		Claim{ID: "thm-vi3/sort-select-gap-grows", Source: "Sec. VI", Primitive: "selection", Metric: Derived,
			Stated: "~sqrt(n) separation grows", Kind: RatioGrows, Sweep: "bounds/selection-vs-sort",
			Col: 2, Den: 1, MinGain: 3},
	)

	// --- Sec. II-A: treefix sums at Θ(n) energy on any tree shape.
	claims = append(claims,
		Claim{ID: "sec-ii-a/treefix-path-linear", Source: "Sec. II-A vs [38]", Primitive: "treefix", Metric: Energy,
			Stated: "Theta(n) on a path", Kind: Exponent, Sweep: "bounds/treefix", Col: 1, Want: 1.0, Tol: 0.15},
		Claim{ID: "sec-ii-a/treefix-balanced-linear", Source: "Sec. II-A vs [38]", Primitive: "treefix", Metric: Energy,
			Stated: "Theta(n) on a balanced tree", Kind: Exponent, Sweep: "bounds/treefix", Col: 2, Want: 1.0, Tol: 0.15},
		// Large-n tail: the Euler tour doubles the scanned elements, so the
		// [38]-style binary-tree scan baseline stays ahead on constants
		// through the measured range (up to 2^20) while the treefix's
		// Theta(n) growth closes the Theta(log n) gap; the fitted power
		// laws cross only beyond the sweep (~2^24-2^25 by the full fits;
		// EXPERIMENTS.md tracks the measured ratio).
		Claim{ID: "sec-ii-a/treefix-vs-tree-scan-crossover", Source: "Sec. II-A vs [38]", Primitive: "treefix", Metric: Derived,
			Stated: "treefix overtakes the tree-scan baseline only beyond the measured range", Kind: CrossoverBeyond, Sweep: "bounds/treefix",
			Col: 1, Den: 3},
	)

	// --- Theorem VIII.2: the direct SpMV beats the PRAM simulation on
	// depth and distance at every measured size.
	claims = append(claims,
		Claim{ID: "thm-viii2/direct-spmv-wins-depth", Source: "Theorem VIII.2", Primitive: "spmv", Metric: Depth,
			Stated: "log-factor depth win over PRAM route", Kind: Dominates, Sweep: "bounds/spmv-vs-pram",
			Col: 1, Den: 2},
		Claim{ID: "thm-viii2/direct-spmv-wins-distance", Source: "Theorem VIII.2", Primitive: "spmv", Metric: Distance,
			Stated: "log-factor distance win over PRAM route", Kind: Dominates, Sweep: "bounds/spmv-vs-pram",
			Col: 3, Den: 4},
	)

	// --- Auto-tuner headline (internal/tuner, bounds/tuned-*): the
	// EDP-minimal mapping found by exhaustive search over the discrete
	// layout/schedule space strictly beats the row-major default
	// (mapping.Default()) at every measured size, and the fitted trends
	// keep it ahead. bounds/tuned-spmv is deliberately unclaimed: there the
	// row-major track *is* EDP-minimal at measured sizes (spatialtune shows
	// a 1.00x gain), so no dominance claim would hold.
	claims = append(claims,
		Claim{ID: "tuner/scan-tuned-dominates-baseline", Source: "internal/tuner / Sec. IV-C", Primitive: "scan", Metric: Derived,
			Stated: "tuned mapping (Z-order quadtree) beats the row-major default's EDP everywhere", Kind: Dominates, Sweep: "bounds/tuned-scan",
			Col: 1, Den: 2},
		Claim{ID: "tuner/reduce-tuned-dominates-baseline", Source: "internal/tuner / Lemma IV.1", Primitive: "reduce", Metric: Derived,
			Stated: "tuned mapping (curve track, wide arity) beats the row-major binary tree's EDP everywhere", Kind: Dominates, Sweep: "bounds/tuned-reduce",
			Col: 1, Den: 2},
		Claim{ID: "tuner/sort-tuned-dominates-baseline", Source: "internal/tuner / Lemma V.4", Primitive: "sort", Metric: Derived,
			Stated: "tuned mapping (Z-order bitonic wiring) beats the row-major default's EDP everywhere", Kind: Dominates, Sweep: "bounds/tuned-sort",
			Col: 1, Den: 2},
	)

	// --- Graph-analytics suite (internal/graph, bounds/graph-*): composed
	// bounds. Row shape {n, meshE, meshD, rmatE, rmatD}; the mesh family
	// has diameter Θ(√n), the power-law family O(log n) whp. Energy fits
	// approach their exponents from below (additive Θ(m)-class scan terms),
	// so the O(·) compositions use ExponentAtMost; BFS's mesh energy is a
	// genuine Θ(n^1.5) — both the per-level scans (Θ(m·D)) and the one-shot
	// scatter (Θ(m^1.5)) land on the same exponent there.
	claims = append(claims,
		Claim{ID: "graph/bfs/energy-mesh", Source: "internal/graph / Lemma IV.3 composed", Primitive: "bfs", Metric: Energy,
			Stated: "Theta(n^1.5) on the mesh (Θ(m·D + m^1.5), D = Θ(√n))", Kind: Exponent, Sweep: "bounds/graph-bfs",
			Col: 1, Want: 1.5, Tol: 0.2},
		Claim{ID: "graph/bfs/energy-powerlaw", Source: "internal/graph / Lemma IV.3 composed", Primitive: "bfs", Metric: Energy,
			Stated: "O(m^1.5) on the power-law family (D = O(log n))", Kind: ExponentAtMost, Sweep: "bounds/graph-bfs",
			Col: 3, Want: 1.5, Tol: 0.1},
		Claim{ID: "graph/bfs/depth-mesh-polynomial", Source: "internal/graph", Primitive: "bfs", Metric: Depth,
			Stated: "Theta(D log m) = Θ(√n log n) on the mesh: level-synchrony pays the diameter", Kind: Polynomial,
			Sweep: "bounds/graph-bfs", Col: 2},
		Claim{ID: "graph/bfs/depth-powerlaw-polylog", Source: "internal/graph", Primitive: "bfs", Metric: Depth,
			Stated: "O(log^2 n) on the power-law family: O(log n) levels of O(log m)-depth scans", Kind: Polylog,
			Sweep: "bounds/graph-bfs", Col: 4},
		Claim{ID: "graph/bfs/depth-diameter-separation", Source: "internal/graph", Primitive: "bfs", Metric: Derived,
			Stated: "mesh/power-law depth ratio grows ~√n/log n: diameter dominates BFS depth", Kind: RatioGrows,
			Sweep: "bounds/graph-bfs", Col: 2, Den: 4, MinGain: 2},
		Claim{ID: "graph/cc/energy-mesh", Source: "internal/graph / Thm V.8 + Sec. II-A composed", Primitive: "cc", Metric: Energy,
			Stated: "O(m^1.5 log n): O(log n) hooking rounds of sort + scan + treefix", Kind: ExponentAtMost,
			Sweep: "bounds/graph-cc", Col: 1, Want: 1.75, Tol: 0.1},
		Claim{ID: "graph/cc/energy-powerlaw", Source: "internal/graph / Thm V.8 + Sec. II-A composed", Primitive: "cc", Metric: Energy,
			Stated: "O(m^1.5 log n): O(log n) hooking rounds of sort + scan + treefix", Kind: ExponentAtMost,
			Sweep: "bounds/graph-cc", Col: 3, Want: 1.75, Tol: 0.1},
		Claim{ID: "graph/cc/depth-polylog", Source: "internal/graph", Primitive: "cc", Metric: Depth,
			Stated: "O(log^3 n) even at Θ(√n) diameter: min-hooking + treefix contraction beat level-synchrony", Kind: Polylog,
			Sweep: "bounds/graph-cc", Col: 2},
		Claim{ID: "graph/pagerank/energy", Source: "internal/graph / Thm VIII.2 composed", Primitive: "pagerank", Metric: Energy,
			Stated: "O(K·m^1.5) for K power iterations of the direct SpMV", Kind: ExponentAtMost,
			Sweep: "bounds/graph-pagerank", Col: 3, Want: 1.5, Tol: 0.1},
		Claim{ID: "graph/pagerank/depth-polylog", Source: "internal/graph / Thm VIII.2 composed", Primitive: "pagerank", Metric: Depth,
			Stated: "O(K·log^3 n): iterations chain, each SpMV is polylog", Kind: Polylog,
			Sweep: "bounds/graph-pagerank", Col: 4},
		Claim{ID: "graph/triangles/energy", Source: "internal/graph / Lemma V.4 composed", Primitive: "triangles", Metric: Energy,
			Stated: "O(S^1.5 log S) for S = edges + wedges (Θ(m) on the bounded-degree mesh)", Kind: ExponentAtMost,
			Sweep: "bounds/graph-triangles", Col: 1, Want: 1.6, Tol: 0.15},
		Claim{ID: "graph/triangles/depth-polylog", Source: "internal/graph / Lemma V.4 composed", Primitive: "triangles", Metric: Depth,
			Stated: "O(log^2 S): one bitonic pass over the edge+wedge records", Kind: Polylog,
			Sweep: "bounds/graph-triangles", Col: 2},
	)

	// --- Finite-hardware backends (internal/machine backends,
	// bounds/backend-*): the Table I sort refolded onto a fixed 8×8 fabric
	// whose fold block scales with the layout side (the layout fills exactly
	// one pane; see internal/experiments/backend.go for the row shape and
	// the per-message bounds d_mesh <= d_ideal <= block·(d_mesh + 2)).
	claims = append(claims,
		Claim{ID: "backend/mesh-energy-contracts", Source: "internal/machine backends", Primitive: "sort", Metric: Energy,
			Stated: "folding only contracts distances: E_mesh < E_ideal at every n", Kind: Dominates, Sweep: "bounds/backend-sort",
			Col: 2, Den: 1},
		Claim{ID: "backend/fold-inflation-bounded", Source: "internal/machine backends", Primitive: "sort", Metric: Derived,
			Stated: "E_ideal <= f·(E_mesh + 2·messages) when the layout fits one pane (f = fold block)", Kind: ValueBounded, Sweep: "bounds/backend-sort",
			Col: 4, Lo: 0.01, Hi: 1.0},
		Claim{ID: "backend/torus-beats-mesh", Source: "internal/machine backends", Primitive: "sort", Metric: Energy,
			Stated: "wraparound never lengthens a route: the torus wins at every measured n", Kind: Dominates, Sweep: "bounds/backend-sort",
			Col: 3, Den: 2},
		Claim{ID: "backend/answers-invariant", Source: "internal/machine backends", Primitive: "sort", Metric: Derived,
			// The match column is exactly 1.0 when the FNV hashes of all
			// three fabrics' outputs agree and 0.0 otherwise; the band is
			// only open because ValueBounded requires Lo < Hi.
			Stated: "backends change costs, never results: sorted outputs bit-identical on every fabric", Kind: ValueBounded, Sweep: "bounds/backend-sort",
			Col: 5, Lo: 0.999, Hi: 1.001},
		Claim{ID: "backend/folding-concentrates-load", Source: "internal/machine backends", Primitive: "sort", Metric: Derived,
			Stated: "a fixed fabric concentrates load: max-link inflation grows with n", Kind: RatioGrows, Sweep: "bounds/backend-congestion",
			Col: 5, MinGain: 2},
	)

	return claims
}

// ByID returns the registered claim with the given ID.
func ByID(id string) (Claim, bool) {
	for _, c := range Registry() {
		if c.ID == id {
			return c, true
		}
	}
	return Claim{}, false
}
