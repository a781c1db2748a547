package experiments

import (
	"repro/internal/collectives"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/order"
	"repro/internal/pram"
	"repro/internal/sortnet"
	"repro/internal/spmv"
	"repro/internal/tree"
	"repro/internal/tuner"
	"repro/internal/workload"
)

// Table I primitive measurements. Each measures one primitive on a fresh
// machine leased from the point's env.

// measureScan runs the energy-optimal Z-order scan on n random values.
func measureScan(n int, env *harness.Env) machine.Metrics {
	vals := workload.Array(workload.Random, n, env.Rng)
	return env.Measure(func(m *machine.Machine) {
		r := grid.SquareFor(machine.Coord{}, n)
		grid.Place(m, grid.ZOrder(r), "v", vals, 0)
		collectives.Scan(m, r, "v", collectives.Add, 0.0)
	})
}

// measureSort runs the 2-D mergesort (Theorem V.8) on n random values.
func measureSort(n int, env *harness.Env) machine.Metrics {
	vals := workload.Array(workload.Random, n, env.Rng)
	return env.Measure(func(m *machine.Machine) {
		r := grid.SquareFor(machine.Coord{}, n)
		grid.Place(m, grid.RowMajor(r), "v", vals, 0)
		core.MergeSort(m, r, "v", order.Float64)
	})
}

// measureSelection runs randomized median selection (Theorem VI.3).
func measureSelection(n int, env *harness.Env) machine.Metrics {
	vals := workload.Array(workload.Random, n, env.Rng)
	return env.Measure(func(m *machine.Machine) {
		r := grid.SquareFor(machine.Coord{}, n)
		grid.Place(m, grid.RowMajor(r), "v", vals, 0)
		core.Select(m, r, "v", n/2, order.Float64, env.Rng)
	})
}

// measureSpMV runs the direct SpMV (Theorem VIII.2) on an nnz-entry
// uniform sparse matrix.
func measureSpMV(nnz int, env *harness.Env) machine.Metrics {
	a := workload.SparseMatrix(workload.MatUniform, nnz, nnz, env.Rng)
	x := workload.Array(workload.Random, nnz, env.Rng)
	return env.Measure(func(m *machine.Machine) {
		if _, err := spmv.Multiply(m, a, x); err != nil {
			panic(err)
		}
	})
}

// pick selects the quick or full point list for sweeps whose two modes
// are maintained as explicit lists rather than via sizes()'s drop-last
// rule. Points are seeded per (sweep name, index), so the full list must
// extend the quick list — never reorder it — to keep quick-mode rows
// byte-identical between modes.
func pick(quick bool, quickNs, fullNs []int) []int {
	if quick {
		return quickNs
	}
	return fullNs
}

// Point-cost proxies for scheduler hints and weighted ETA: roughly the
// simulated message count of one point, which tracks wall-clock far
// better than "one point = one unit" once full sweeps span 256…2²⁰.
func costLinear(n int) float64    { return float64(n) }
func costNLogN(n int) float64     { return float64(n) * log2f(n) }
func costNSqrtN(n int) float64    { return float64(n) * sqrtf(n) }
func costQuadratic(n int) float64 { return float64(n) * float64(n) }

// costOf adapts an n-indexed cost proxy to a SweepSpec.Cost.
func costOf(ns []int, f func(n int) float64) func(i int) float64 {
	return func(i int) float64 { return f(ns[i]) }
}

// collectivesBound is Lemma IV.1's h x w broadcast/reduce energy bound,
// hw + max(h,w)·log(max(h,w)).
func collectivesBound(h, w int) float64 {
	return float64(h*w) + float64(max(h, w))*log2f(max(h, w))
}

// BoundSweeps builds the named-sweep registry: the one place a measurement
// point of the evaluation is defined. The conformance checker fits its
// claims to the bounds/* sweeps; spatialbench renders every sweep as
// tables (see All). The rows of a bounds/* sweep start with the problem
// size n; their columns are documented per sweep, and columns only
// claims do not read are appended after the ones they do. Sweep names are
// stable identifiers — they key claim definitions (internal/bounds), the
// result cache and the per-point workload RNGs, so renaming one changes
// its measured workloads.
func BoundSweeps(quick bool) *harness.Registry {
	reg := &harness.Registry{}

	metric := func(name string, ns []int, cost func(n int) float64, measure func(n int, env *harness.Env) machine.Metrics) {
		reg.MustRegister(harness.SweepSpec{
			Name:   name,
			Points: len(ns),
			Cost:   costOf(ns, cost),
			Point: func(i int, env *harness.Env) []harness.Row {
				mm := measure(ns[i], env)
				return harness.One(ns[i], float64(mm.Energy), float64(mm.Depth), float64(mm.Distance))
			},
		})
	}

	// Table I primitives: rows {n, energy, depth, distance}. The scan
	// family reaches n = 2²⁰ in full mode; the sort family stops at 2¹⁶
	// because its Θ(n^1.5) message volume makes 2²⁰ points hour-scale.
	metric("bounds/scan",
		pick(quick, []int{256, 1024, 4096, 16384}, []int{256, 1024, 4096, 16384, 65536, 262144, 1048576}),
		costNLogN, measureScan)
	metric("bounds/sort",
		pick(quick, []int{256, 1024, 4096}, []int{256, 1024, 4096, 16384, 65536}),
		costNSqrtN, measureSort)
	metric("bounds/selection", sizes(quick, 256, 1024, 4096, 16384, 65536), costNSqrtN, measureSelection)
	metric("bounds/spmv", sizes(quick, 256, 1024, 4096, 16384), costNSqrtN, measureSpMV)

	// Scan design space (Sec. IV-C): rows {n, zorderE, treeE, seqE,
	// zorderD, treeD, seqD}.
	scanNs := pick(quick, []int{256, 1024, 4096, 16384}, []int{256, 1024, 4096, 16384, 65536, 262144, 1048576})
	reg.MustRegister(harness.SweepSpec{
		Name:   "bounds/scan-ablation",
		Points: len(scanNs),
		Cost:   costOf(scanNs, costNLogN),
		Point: func(i int, env *harness.Env) []harness.Row {
			n := scanNs[i]
			vals := workload.Array(workload.Random, n, env.Rng)
			z := env.Measure(func(m *machine.Machine) {
				r := grid.SquareFor(machine.Coord{}, n)
				grid.Place(m, grid.ZOrder(r), "v", vals, 0)
				collectives.Scan(m, r, "v", collectives.Add, 0.0)
			})
			tr := env.Measure(func(m *machine.Machine) {
				r := grid.SquareFor(machine.Coord{}, n)
				grid.Place(m, grid.RowMajor(r), "v", vals, 0)
				collectives.ScanTrack(m, grid.RowMajor(r), "v", collectives.Add, 0.0)
			})
			sq := env.Measure(func(m *machine.Machine) {
				r := grid.SquareFor(machine.Coord{}, n)
				grid.Place(m, grid.ZOrder(r), "v", vals, 0)
				collectives.ScanSequential(m, grid.ZOrder(r), "v", collectives.Add)
			})
			return harness.One(n, float64(z.Energy), float64(tr.Energy), float64(sq.Energy),
				z.Depth, tr.Depth, sq.Depth)
		},
	})

	// Reduce ablation (Sec. IV-B): rows {n, twoDimE, treeE, twoDimD, treeD}.
	sides := sizes(quick, 16, 32, 64, 128, 256)
	reg.MustRegister(harness.SweepSpec{
		Name:   "bounds/reduce-ablation",
		Points: len(sides),
		Cost:   func(i int) float64 { return costLinear(sides[i] * sides[i]) },
		Point: func(i int, env *harness.Env) []harness.Row {
			side := sides[i]
			r := grid.Square(machine.Coord{}, side)
			two := env.Measure(func(m *machine.Machine) {
				grid.Place[float64](m, grid.RowMajor(r), "v", nil, 1)
				collectives.Reduce(m, r, "v", collectives.Add)
			})
			tr := env.Measure(func(m *machine.Machine) {
				grid.Place[float64](m, grid.RowMajor(r), "v", nil, 1)
				collectives.ReduceTrack(m, grid.RowMajor(r), "v", collectives.Add)
			})
			return harness.One(side*side, float64(two.Energy), float64(tr.Energy), two.Depth, tr.Depth)
		},
	})

	// Sorting comparison (Fig. 2): rows {n, mergeE, bitonicE, meshE,
	// mergeD, bitonicD, meshD}.
	sortNs := pick(quick, []int{256, 1024, 4096}, []int{256, 1024, 4096, 16384, 65536})
	reg.MustRegister(harness.SweepSpec{
		Name:   "bounds/sort-ablation",
		Points: len(sortNs),
		Cost:   costOf(sortNs, costNSqrtN),
		Point: func(i int, env *harness.Env) []harness.Row {
			n := sortNs[i]
			vals := workload.Array(workload.Random, n, env.Rng)
			ms := env.Measure(func(m *machine.Machine) {
				r := grid.SquareFor(machine.Coord{}, n)
				grid.Place(m, grid.RowMajor(r), "v", vals, 0)
				core.MergeSort(m, r, "v", order.Float64)
			})
			bs := env.Measure(func(m *machine.Machine) {
				r := grid.SquareFor(machine.Coord{}, n)
				grid.Place(m, grid.RowMajor(r), "v", vals, 0)
				sortnet.Sort(m, grid.RowMajor(r), "v", n, order.Float64)
			})
			sh := env.Measure(func(m *machine.Machine) {
				r := grid.SquareFor(machine.Coord{}, n)
				grid.Place(m, grid.RowMajor(r), "v", vals, 0)
				sortnet.Shearsort(m, r, "v", order.Float64)
			})
			return harness.One(n, float64(ms.Energy), float64(bs.Energy), float64(sh.Energy),
				float64(ms.Depth), float64(bs.Depth), float64(sh.Depth))
		},
	})

	// Large-n sorting-network tail (Lemma V.4 / Sec. II-B): rows {n,
	// bitonicE, meshE, bitonicD, meshD}. A separate sweep rather than an
	// extension of bounds/sort-ablation so the recorded small-n rows (and
	// the crossover claims calibrated on them) stay byte-identical. Both
	// sorters are data-oblivious, so under a batched-send runner
	// (harness.WithBatchSends) the whole sweep runs on the machine's
	// counting-only fast path — which is what makes the 2^20 points
	// affordable inside the nightly budget; the mesh point at 2^20 alone is
	// ~2.4*10^10 messages.
	snNs := pick(quick, []int{1024, 4096, 16384}, []int{1024, 4096, 16384, 65536, 262144, 1048576})
	reg.MustRegister(harness.SweepSpec{
		Name:   "bounds/sortnet-large",
		Points: len(snNs),
		Cost:   costOf(snNs, func(n int) float64 { return costNSqrtN(n) * log2f(n) }),
		Point: func(i int, env *harness.Env) []harness.Row {
			n := snNs[i]
			vals := workload.Array(workload.Random, n, env.Rng)
			bs := env.Measure(func(m *machine.Machine) {
				r := grid.SquareFor(machine.Coord{}, n)
				grid.Place(m, grid.RowMajor(r), "v", vals, 0)
				sortnet.Sort(m, grid.RowMajor(r), "v", n, order.Float64)
			})
			sh := env.Measure(func(m *machine.Machine) {
				r := grid.SquareFor(machine.Coord{}, n)
				grid.Place(m, grid.RowMajor(r), "v", vals, 0)
				sortnet.Shearsort(m, r, "v", order.Float64)
			})
			return harness.One(n, float64(bs.Energy), float64(sh.Energy),
				float64(bs.Depth), float64(sh.Depth))
		},
	})

	// Collectives bound ratios (Lemma IV.1) on square, column and general
	// h x w subgrids: rows {h*w, bcastE/bound, reduceE/bound, h, w,
	// bcastE, bcastD, bcastDist, reduceE, reduceD, reduceDist} where bound
	// is collectivesBound(h, w).
	shapes := [][2]int{{32, 32}, {64, 64}, {128, 128}, {1024, 1}, {4096, 1}, {256, 16}, {16, 256}, {512, 8}}
	if quick {
		shapes = shapes[:5]
	}
	reg.MustRegister(harness.SweepSpec{
		Name:   "bounds/collectives",
		Points: len(shapes),
		Cost:   func(i int) float64 { return costLinear(shapes[i][0] * shapes[i][1]) },
		Point: func(i int, env *harness.Env) []harness.Row {
			h, w := shapes[i][0], shapes[i][1]
			r := grid.Rect{Origin: machine.Coord{}, H: h, W: w}
			bm := env.Measure(func(m *machine.Machine) {
				m.Set(r.Origin, "v", 1.0)
				collectives.Broadcast(m, r, "v")
			})
			rm := env.Measure(func(m *machine.Machine) {
				grid.Place[float64](m, grid.RowMajor(r), "v", nil, 1)
				collectives.Reduce(m, r, "v", collectives.Add)
			})
			bound := collectivesBound(h, w)
			return harness.One(h*w, float64(bm.Energy)/bound, float64(rm.Energy)/bound, h, w,
				float64(bm.Energy), bm.Depth, bm.Distance, float64(rm.Energy), rm.Depth, rm.Distance)
		},
	})

	// Permutation lower bound (Lemma V.1 / Cor. V.2): rows {n,
	// reversalE/n^1.5, mergesortOnReversedE/reversalE, reversalE,
	// mergesortOnReversedE}.
	lbNs := sizes(quick, 1024, 4096, 16384)
	reg.MustRegister(harness.SweepSpec{
		Name:   "bounds/lowerbound",
		Points: len(lbNs),
		Cost:   costOf(lbNs, costNSqrtN),
		Point: func(i int, env *harness.Env) []harness.Row {
			n := lbNs[i]
			perm := workload.Permutation(workload.PermReversal, n, env.Rng)
			pe := env.Measure(func(m *machine.Machine) {
				r := grid.SquareFor(machine.Coord{}, n)
				tr := grid.RowMajor(r)
				grid.Place[float64](m, tr, "v", nil, 1)
				core.Permute(m, tr, "v", tr, "v", perm)
			})
			vals := workload.Array(workload.Reversed, n, env.Rng)
			se := env.Measure(func(m *machine.Machine) {
				r := grid.SquareFor(machine.Coord{}, n)
				grid.Place(m, grid.RowMajor(r), "v", vals, 0)
				core.MergeSort(m, r, "v", order.Float64)
			})
			n15 := float64(n) * sqrtf(n)
			return harness.One(n, float64(pe.Energy)/n15, float64(se.Energy)/float64(pe.Energy),
				float64(pe.Energy), float64(se.Energy))
		},
	})

	// Permutation families (Lemma V.1): rows {n, family, energy,
	// energy/n^1.5}, one per (size, family).
	permNs := sizes(quick, 1024, 4096, 16384)
	kinds := workload.PermKinds()
	reg.MustRegister(harness.SweepSpec{
		Name:   "lowerbound/permutation",
		Points: len(permNs) * len(kinds),
		Cost:   func(i int) float64 { return costNSqrtN(permNs[i/len(kinds)]) },
		Point: func(i int, env *harness.Env) []harness.Row {
			n := permNs[i/len(kinds)]
			kind := kinds[i%len(kinds)]
			perm := workload.Permutation(kind, n, env.Rng)
			mm := env.Measure(func(m *machine.Machine) {
				r := grid.SquareFor(machine.Coord{}, n)
				tr := grid.RowMajor(r)
				grid.Place[float64](m, tr, "v", nil, 1)
				core.Permute(m, tr, "v", tr, "v", perm)
			})
			return harness.One(n, string(kind), float64(mm.Energy), float64(mm.Energy)/(float64(n)*sqrtf(n)))
		},
	})

	// Component lemmas (V.5–V.7): rows {n, energy, depth, distance}.
	apNs := sizes(quick, 16, 64, 256)
	reg.MustRegister(harness.SweepSpec{
		Name:   "bounds/all-pairs",
		Points: len(apNs),
		Cost:   costOf(apNs, costQuadratic),
		Point: func(i int, env *harness.Env) []harness.Row {
			n := apNs[i]
			vals := workload.Array(workload.Random, n, env.Rng)
			mm := env.Measure(func(m *machine.Machine) {
				r := grid.SquareFor(machine.Coord{}, n)
				tr := grid.RowMajor(r)
				grid.Place(m, tr, "v", vals, 0)
				scratch := r.RightOf(core.AllPairsScratchSide(n), core.AllPairsScratchSide(n))
				core.AllPairsSort(m, tr, "v", n, scratch, order.Float64)
			})
			return harness.One(n, float64(mm.Energy), mm.Depth, mm.Distance)
		},
	})
	rsNs := sizes(quick, 1024, 4096, 16384)
	reg.MustRegister(harness.SweepSpec{
		Name:   "bounds/rank-select",
		Points: len(rsNs),
		Cost:   costOf(rsNs, costNSqrtN),
		Point: func(i int, env *harness.Env) []harness.Row {
			n := rsNs[i]
			half := n / 2
			a := workload.Array(workload.Sorted, half, env.Rng)
			b := workload.Array(workload.Sorted, half, env.Rng)
			mm := env.Measure(func(m *machine.Machine) {
				ra := grid.Square(machine.Coord{}, grid.Pow2Side(half))
				rb := grid.Square(machine.Coord{Row: 0, Col: ra.W + 1}, ra.W)
				tA := grid.Slice(grid.RowMajor(ra), 0, half)
				tB := grid.Slice(grid.RowMajor(rb), 0, half)
				grid.Place(m, tA, "v", a, 0)
				grid.Place(m, tB, "v", b, 0)
				scratch := grid.Square(machine.Coord{Row: ra.H + 1, Col: 0}, core.SelectScratchSide(n))
				core.SelectInSorted(m, tA, tB, "v", n/2, scratch, order.Float64)
			})
			return harness.One(n, float64(mm.Energy), mm.Depth, mm.Distance)
		},
	})
	mgNs := sizes(quick, 512, 2048, 8192)
	reg.MustRegister(harness.SweepSpec{
		Name:   "bounds/merge",
		Points: len(mgNs),
		Cost:   costOf(mgNs, costNSqrtN),
		Point: func(i int, env *harness.Env) []harness.Row {
			n := mgNs[i]
			quarter := n / 2
			a := workload.Array(workload.Sorted, quarter, env.Rng)
			b := workload.Array(workload.Sorted, quarter, env.Rng)
			mm := env.Measure(func(m *machine.Machine) {
				r := grid.SquareFor(machine.Coord{}, 2*n)
				q := r.Quadrants()
				tA := grid.Slice(grid.RowMajor(q[0]), 0, quarter)
				tB := grid.Slice(grid.RowMajor(q[1]), 0, quarter)
				grid.Place(m, tA, "v", a, 0)
				grid.Place(m, tB, "v", b, 0)
				core.Merge(m, tA, tB, "v", r.TopHalf(), order.Float64)
			})
			return harness.One(n, float64(mm.Energy), mm.Depth, mm.Distance)
		},
	})

	// Selection vs sorting separation (Sec. VI): rows {n, selectE, sortE,
	// selectD}.
	selNs := sizes(quick, 1024, 4096, 16384)
	reg.MustRegister(harness.SweepSpec{
		Name:   "bounds/selection-vs-sort",
		Points: len(selNs),
		Cost:   costOf(selNs, costNSqrtN),
		Point: func(i int, env *harness.Env) []harness.Row {
			n := selNs[i]
			sel := measureSelection(n, env)
			srt := measureSort(n, env)
			return harness.One(n, float64(sel.Energy), float64(srt.Energy), sel.Depth)
		},
	})

	// PRAM simulation per-step costs (Lemmas VII.1–VII.2): rows {mode, p,
	// energy/step, depth/step, p(√p+√m), energy ratio}, three per size.
	ps := sizes(quick, 64, 256, 1024)
	reg.MustRegister(harness.SweepSpec{
		Name:   "pram",
		Points: len(ps),
		Cost:   costOf(ps, costNSqrtN),
		Point: func(i int, env *harness.Env) []harness.Row {
			p := ps[i]
			bound := float64(p) * (sqrtf(p) + 1)
			em := env.Measure(func(m *machine.Machine) {
				sim := pram.New(m, pram.BroadcastWrite{P: p}, pram.CRCW, nil)
				if err := sim.Run(); err != nil {
					panic(err)
				}
			})
			cm := env.Measure(func(m *machine.Machine) {
				sim := pram.New(m, pram.ConcurrentRead{P: p}, pram.CRCW, []machine.Value{1.0})
				if err := sim.Run(); err != nil {
					panic(err)
				}
			})
			n := 2 * p
			treeProg := pram.TreeSum{N: n}
			steps := float64(treeProg.Steps())
			tm := env.Measure(func(m *machine.Machine) {
				init := make([]machine.Value, n)
				for i := range init {
					init[i] = 1.0
				}
				sim := pram.New(m, treeProg, pram.EREW, init)
				if err := sim.Run(); err != nil {
					panic(err)
				}
			})
			eBound := float64(p) * (sqrtf(p) + sqrtf(n)) * steps
			return []harness.Row{
				{"CRCW-write", p, float64(em.Energy), em.Depth, bound, float64(em.Energy) / bound},
				{"CRCW-read", p, float64(cm.Energy), cm.Depth, bound, float64(cm.Energy) / bound},
				{"EREW-treesum", p, float64(tm.Energy) / steps, float64(tm.Depth) / steps, eBound / steps, float64(tm.Energy) / eBound},
			}
		},
	})

	// Treefix sums (Sec. II-A): rows {n, pathE, balancedE, scanE, pathD}
	// where scanE is the flat tree-scan (ScanTrack) on the same n values —
	// the baseline the treefix crossover claim compares the worst-case
	// path tree against.
	tfNs := pick(quick, []int{1024, 4096, 16384}, []int{1024, 4096, 16384, 65536, 262144, 1048576})
	reg.MustRegister(harness.SweepSpec{
		Name:   "bounds/treefix",
		Points: len(tfNs),
		Cost:   costOf(tfNs, costNSqrtN),
		Point: func(i int, env *harness.Env) []harness.Row {
			n := tfNs[i]
			ones := make([]float64, n)
			for j := range ones {
				ones[j] = 1
			}
			run := func(tr tree.Tree) machine.Metrics {
				return env.Measure(func(m *machine.Machine) {
					if _, err := tree.RootfixSum(m, tr, ones); err != nil {
						panic(err)
					}
				})
			}
			pathM := run(tree.Path(n))
			balM := run(tree.Balanced(n))
			scanM := env.Measure(func(m *machine.Machine) {
				r := grid.SquareFor(machine.Coord{}, n)
				grid.Place(m, grid.RowMajor(r), "v", ones, 0)
				collectives.ScanTrack(m, grid.RowMajor(r), "v", collectives.Add, 0.0)
			})
			return harness.One(n, float64(pathM.Energy), float64(balM.Energy), float64(scanM.Energy), pathM.Depth)
		},
	})

	// Direct SpMV across matrix families (Thm VIII.2): rows {family, n,
	// nnz, energy, depth, distance}, family-major.
	matKinds := workload.MatrixKinds()
	dirNs := sizes(quick, 64, 256, 1024)
	reg.MustRegister(harness.SweepSpec{
		Name:   "spmv-ablation/direct",
		Points: len(matKinds) * len(dirNs),
		Cost:   func(i int) float64 { return costNSqrtN(4 * dirNs[i%len(dirNs)]) },
		Point: func(i int, env *harness.Env) []harness.Row {
			kind := matKinds[i/len(dirNs)]
			n := dirNs[i%len(dirNs)]
			a := workload.SparseMatrix(kind, n, 4*n, env.Rng)
			x := workload.Array(workload.Random, n, env.Rng)
			dm := env.Measure(func(m *machine.Machine) {
				if _, err := spmv.Multiply(m, a, x); err != nil {
					panic(err)
				}
			})
			return harness.One(string(kind), n, a.NNZ(), float64(dm.Energy), dm.Depth, dm.Distance)
		},
	})

	// Direct vs PRAM-simulated SpMV (Sec. VIII; kept small: the CRCW
	// simulation sorts per step): rows {n, directDepth, pramDepth,
	// directDist, pramDist, nnz, directE, pramE}.
	vsNs := sizes(quick, 16, 32, 64)
	reg.MustRegister(harness.SweepSpec{
		Name:   "bounds/spmv-vs-pram",
		Points: len(vsNs),
		Cost:   costOf(vsNs, costQuadratic),
		Point: func(i int, env *harness.Env) []harness.Row {
			n := vsNs[i]
			a := workload.SparseMatrix(workload.MatUniform, n, 4*n, env.Rng)
			x := workload.Array(workload.Random, n, env.Rng)
			dm := env.Measure(func(m *machine.Machine) {
				if _, err := spmv.Multiply(m, a, x); err != nil {
					panic(err)
				}
			})
			pm := env.Measure(func(m *machine.Machine) {
				if _, err := spmv.MultiplyPRAM(m, a, x); err != nil {
					panic(err)
				}
			})
			return harness.One(n, float64(dm.Depth), float64(pm.Depth),
				float64(dm.Distance), float64(pm.Distance), a.NNZ(), float64(dm.Energy), float64(pm.Energy))
		},
	})

	// Max per-link load under XY routing (an extension: energy is the
	// *total* network load): rows {algorithm, n, energy, max link load,
	// load/√n}. Every algorithm of a point runs on the same input array,
	// on a machine leased with congestion tracking.
	cgNs := sizes(quick, 1024, 4096, 16384)
	reg.MustRegister(harness.SweepSpec{
		Name:   "congestion",
		Points: len(cgNs),
		Cost:   costOf(cgNs, costNSqrtN),
		Opts:   []harness.SweepOption{harness.WithCongestion()},
		Point: func(i int, env *harness.Env) []harness.Row {
			n := cgNs[i]
			vals := workload.Array(workload.Random, n, env.Rng)
			type algo struct {
				name string
				run  func(m *machine.Machine, r grid.Rect)
			}
			algos := []algo{
				{"zorder-scan", func(m *machine.Machine, r grid.Rect) {
					grid.Place(m, grid.ZOrder(r), "v", vals, 0)
					collectives.Scan(m, r, "v", collectives.Add, 0.0)
				}},
				{"tree-scan", func(m *machine.Machine, r grid.Rect) {
					grid.Place(m, grid.RowMajor(r), "v", vals, 0)
					collectives.ScanTrack(m, grid.RowMajor(r), "v", collectives.Add, 0.0)
				}},
				{"broadcast", func(m *machine.Machine, r grid.Rect) {
					m.Set(r.Origin, "v", 1.0)
					collectives.Broadcast(m, r, "v")
				}},
			}
			if n <= 4096 {
				algos = append(algos,
					algo{"mergesort", func(m *machine.Machine, r grid.Rect) {
						grid.Place(m, grid.RowMajor(r), "v", vals, 0)
						core.MergeSort(m, r, "v", order.Float64)
					}},
					algo{"bitonic", func(m *machine.Machine, r grid.Rect) {
						grid.Place(m, grid.RowMajor(r), "v", vals, 0)
						sortnet.Sort(m, grid.RowMajor(r), "v", n, order.Float64)
					}})
			}
			out := make([]harness.Row, 0, len(algos))
			for _, a := range algos {
				m := env.Machine() // reset, congestion tracking enabled
				a.run(m, grid.SquareFor(machine.Coord{}, n))
				out = append(out, harness.Row{a.name, n, float64(m.Metrics().Energy), float64(m.MaxCongestion()),
					float64(m.MaxCongestion()) / sqrtf(n)})
			}
			return out
		},
	})

	// Tuned vs row-major-baseline mappings: bounds/tuned-{scan, reduce,
	// sort, spmv}, rows {n, tunedEDP, baselineEDP, then each candidate's
	// energy and depth} (tuner.Workload.Sweep, which spatialtune runs too).
	// The "tuner never loses to the naive mapping" claims read the first
	// three columns; no claim reads the SpMV sweep.
	for _, w := range tuner.Workloads() {
		reg.MustRegister(w.Sweep(quick))
	}

	// Graph-analytics suite (composed workloads): bounds/graph-{bfs, cc,
	// pagerank, triangles}, rows {n, meshE, meshD, rmatE, rmatD}.
	registerGraphSweeps(reg, quick)

	// Finite-hardware backends: bounds/backend-{sort, congestion} — the
	// Table I sort refolded onto a fixed mesh/torus fabric (see backend.go).
	registerBackendSweeps(reg, quick)

	return reg
}
