// Package repro's root benchmarks regenerate, one testing.B target per
// experiment ID of DESIGN.md, the paper's evaluation artifacts. Each bench
// reuses one simulated machine across iterations (machine.Reset zeroes the
// grid in place, keeping the tile and register-name allocations warm) and
// reports the Spatial Computer Model costs (energy, depth, distance) as
// custom metrics next to the usual wall-clock numbers; `go test -bench=.
// -benchmem` prints them all. The spatialbench command runs the same
// measurements as full parameter sweeps with fitted scaling exponents.
package repro

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/collectives"
	"repro/internal/core"
	"repro/internal/gnn"
	"repro/internal/grid"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/order"
	"repro/internal/pram"
	"repro/internal/sortnet"
	"repro/internal/spmv"
	"repro/internal/tree"
	"repro/internal/workload"
)

// report attaches the model costs of the last run to the benchmark output.
func report(b *testing.B, m *machine.Machine) {
	b.Helper()
	mm := m.Metrics()
	b.ReportMetric(float64(mm.Energy), "energy/op")
	b.ReportMetric(float64(mm.Depth), "depth/op")
	b.ReportMetric(float64(mm.Distance), "distance/op")
	b.ReportMetric(float64(mm.Messages), "messages/op")
}

func placeBench(m *machine.Machine, t grid.Track, vals []float64) {
	for i := 0; i < t.Len(); i++ {
		v := 0.0
		if i < len(vals) {
			v = vals[i]
		}
		m.Set(t.At(i), "v", v)
	}
}

// BenchmarkTable1Scan — Table I row 1 (Lemma IV.3): Theta(n) energy,
// O(log n) depth, Theta(sqrt n) distance.
func BenchmarkTable1Scan(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			vals := workload.Array(workload.Random, n, rng)
			m := machine.New()
			for i := 0; i < b.N; i++ {
				m.Reset()
				r := grid.SquareFor(machine.Coord{}, n)
				placeBench(m, grid.ZOrder(r), vals)
				collectives.Scan(m, r, "v", collectives.Add, 0.0)
			}
			report(b, m)
		})
	}
}

// BenchmarkTable1Sort — Table I row 2 (Theorem V.8): Theta(n^{3/2}) energy,
// O(log^3 n) depth, Theta(sqrt n) distance.
func BenchmarkTable1Sort(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			vals := workload.Array(workload.Random, n, rng)
			m := machine.New()
			for i := 0; i < b.N; i++ {
				m.Reset()
				r := grid.SquareFor(machine.Coord{}, n)
				placeBench(m, grid.RowMajor(r), vals)
				core.MergeSort(m, r, "v", order.Float64)
			}
			report(b, m)
		})
	}
}

// BenchmarkTable1Select — Table I row 3 (Theorem VI.3): Theta(n) energy,
// O(log^2 n) depth w.h.p.
func BenchmarkTable1Select(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			vals := workload.Array(workload.Random, n, rng)
			m := machine.New()
			for i := 0; i < b.N; i++ {
				m.Reset()
				r := grid.SquareFor(machine.Coord{}, n)
				placeBench(m, grid.RowMajor(r), vals)
				core.Select(m, r, "v", n/2, order.Float64, rand.New(rand.NewSource(int64(i))))
			}
			report(b, m)
		})
	}
}

// BenchmarkTable1SpMV — Table I row 4 (Theorem VIII.2): Theta(m^{3/2})
// energy, O(log^3 n) depth, Theta(sqrt m) distance.
func BenchmarkTable1SpMV(b *testing.B) {
	for _, nnz := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("nnz=%d", nnz), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			a := workload.SparseMatrix(workload.MatUniform, nnz, nnz, rng)
			x := workload.Array(workload.Random, nnz, rng)
			m := machine.New()
			for i := 0; i < b.N; i++ {
				m.Reset()
				if _, err := spmv.Multiply(m, a, x); err != nil {
					b.Fatal(err)
				}
			}
			report(b, m)
		})
	}
}

// BenchmarkMeshSortPoint measures one full-mode sort-sweep measurement — a
// 65536-element Shearsort point — along the machine's two send paths:
// "value" carries register payloads through per-level Par rounds,
// "counting" takes the counting-only fast path SetBatchSends admits on a
// sink-free machine (payloads host-side, identical
// Energy/Depth/Distance/Messages), and "counting/shards=2" takes it on a
// 2-shard machine, whose counting kernel charges the rows (or columns) of
// each phase from two lanes.
// The ratio of the value and counting ns/op is the single-measurement
// speedup of the batched-send redesign; `make bench` records all three in
// BENCH_machine.json so bench-compare tracks them.
func BenchmarkMeshSortPoint(b *testing.B) {
	const n = 65536
	rng := rand.New(rand.NewSource(5))
	vals := workload.Array(workload.Random, n, rng)
	for _, mode := range []struct {
		name   string
		batch  bool
		shards int
	}{{"value", false, 0}, {"counting", true, 0}, {"counting/shards=2", true, 2}} {
		b.Run(mode.name, func(b *testing.B) {
			m := machine.New()
			m.SetBatchSends(mode.batch)
			m.SetShards(mode.shards)
			for i := 0; i < b.N; i++ {
				m.Reset()
				r := grid.SquareFor(machine.Coord{}, n)
				placeBench(m, grid.RowMajor(r), vals)
				sortnet.Shearsort(m, r, "v", order.Float64)
			}
			report(b, m)
			if mode.shards > 0 {
				b.ReportMetric(float64(mode.shards), "shards")
			}
		})
	}
}

// BenchmarkBitonicSortPoint measures the bitonic network's counting path
// at 2^18 elements, the size of the large-n benchmark's bitonic calls, on
// one and on two shards: with two, the counting kernel charges each level
// from two lanes, block by block where the level stays inside blocks of
// 2048 wires and split by comparator range elsewhere. Both report their
// shard count, so bench-compare never compares the two.
func BenchmarkBitonicSortPoint(b *testing.B) {
	const n = 1 << 18
	rng := rand.New(rand.NewSource(15))
	vals := workload.Array(workload.Random, n, rng)
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("counting/shards=%d", shards), func(b *testing.B) {
			m := machine.New()
			m.SetBatchSends(true)
			m.SetShards(shards)
			r := grid.SquareFor(machine.Coord{}, n)
			for i := 0; i < b.N; i++ {
				m.Reset()
				placeBench(m, grid.RowMajor(r), vals)
				sortnet.Sort(m, grid.RowMajor(r), "v", n, order.Float64)
			}
			report(b, m)
			b.ReportMetric(float64(shards), "shards")
		})
	}
}

// BenchmarkScanPoint measures the two nightly-size scans at 2^16 elements
// — the Z-order Scan (Lemma IV.3) and the row-major tree ScanTrack
// baseline — along the machine's two send paths, as BenchmarkMeshSortPoint
// does for the sort: "value" carries the partial sums through registers and
// Par rounds, "counting" takes the counting form SetBatchSends admits on a
// sink-free machine (sums host-side, identical
// Energy/Depth/Distance/Messages).
func BenchmarkScanPoint(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(14))
	vals := workload.Array(workload.Random, n, rng)
	for _, scan := range []struct {
		name  string
		track func(grid.Rect) grid.Track
		run   func(m *machine.Machine, r grid.Rect)
	}{
		{"zorder", grid.ZOrder, func(m *machine.Machine, r grid.Rect) { collectives.Scan(m, r, "v", collectives.Add, 0.0) }},
		{"tree", grid.RowMajor, func(m *machine.Machine, r grid.Rect) {
			collectives.ScanTrack(m, grid.RowMajor(r), "v", collectives.Add, 0.0)
		}},
	} {
		for _, mode := range []struct {
			name  string
			batch bool
		}{{"value", false}, {"counting", true}} {
			b.Run(scan.name+"/"+mode.name, func(b *testing.B) {
				m := machine.New()
				m.SetBatchSends(mode.batch)
				r := grid.SquareFor(machine.Coord{}, n)
				for i := 0; i < b.N; i++ {
					m.Reset()
					placeBench(m, scan.track(r), vals)
					scan.run(m, r)
				}
				report(b, m)
			})
		}
	}
}

// BenchmarkBroadcast — Lemma IV.1 on square and elongated subgrids.
func BenchmarkBroadcast(b *testing.B) {
	for _, sh := range [][2]int{{64, 64}, {4096, 1}, {256, 16}} {
		b.Run(fmt.Sprintf("%dx%d", sh[0], sh[1]), func(b *testing.B) {
			m := machine.New()
			for i := 0; i < b.N; i++ {
				m.Reset()
				r := grid.Rect{Origin: machine.Coord{}, H: sh[0], W: sh[1]}
				m.Set(r.Origin, "v", 1.0)
				collectives.Broadcast(m, r, "v")
			}
			report(b, m)
		})
	}
}

// BenchmarkReduce — Corollary IV.2: the multicast-free reduce vs the
// binary-tree reduce baseline (Theta(log n) energy gap).
func BenchmarkReduce(b *testing.B) {
	const side = 64
	r := grid.Square(machine.Coord{}, side)
	b.Run("2d", func(b *testing.B) {
		m := machine.New()
		for i := 0; i < b.N; i++ {
			m.Reset()
			placeBench(m, grid.RowMajor(r), nil)
			collectives.Reduce(m, r, "v", collectives.Add)
		}
		report(b, m)
	})
	b.Run("tree-baseline", func(b *testing.B) {
		m := machine.New()
		for i := 0; i < b.N; i++ {
			m.Reset()
			placeBench(m, grid.RowMajor(r), nil)
			collectives.ReduceTrack(m, grid.RowMajor(r), "v", collectives.Add)
		}
		report(b, m)
	})
}

// BenchmarkScanBaselines — Figure/Section IV-C scan design space.
func BenchmarkScanBaselines(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(5))
	vals := workload.Array(workload.Random, n, rng)
	run := func(b *testing.B, f func(m *machine.Machine, r grid.Rect)) {
		m := machine.New()
		for i := 0; i < b.N; i++ {
			m.Reset()
			r := grid.SquareFor(machine.Coord{}, n)
			f(m, r)
		}
		report(b, m)
	}
	b.Run("zorder", func(b *testing.B) {
		run(b, func(m *machine.Machine, r grid.Rect) {
			placeBench(m, grid.ZOrder(r), vals)
			collectives.Scan(m, r, "v", collectives.Add, 0.0)
		})
	})
	b.Run("tree-baseline", func(b *testing.B) {
		run(b, func(m *machine.Machine, r grid.Rect) {
			placeBench(m, grid.RowMajor(r), vals)
			collectives.ScanTrack(m, grid.RowMajor(r), "v", collectives.Add, 0.0)
		})
	})
	b.Run("sequential-baseline", func(b *testing.B) {
		run(b, func(m *machine.Machine, r grid.Rect) {
			placeBench(m, grid.ZOrder(r), vals)
			collectives.ScanSequential(m, grid.ZOrder(r), "v", collectives.Add)
		})
	})
}

// BenchmarkBitonicSort — Lemma V.4: Theta(n^{3/2} log n) energy,
// Theta(log^2 n) depth on a square subgrid.
func BenchmarkBitonicSort(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			vals := workload.Array(workload.Random, n, rng)
			m := machine.New()
			for i := 0; i < b.N; i++ {
				m.Reset()
				r := grid.SquareFor(machine.Coord{}, n)
				placeBench(m, grid.RowMajor(r), vals)
				sortnet.Sort(m, grid.RowMajor(r), "v", n, order.Float64)
			}
			report(b, m)
		})
	}
}

// BenchmarkBitonicMerge — Lemma V.3: Theta(h^2 w + w^2 h) energy,
// Theta(log n) depth.
func BenchmarkBitonicMerge(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(7))
	vals := workload.Array(workload.Random, n, rng)
	// Bitonic input: ascending then descending halves.
	half := append([]float64(nil), vals...)
	for i := 0; i < n/2; i++ {
		half[i] = float64(i)
		half[n-1-i] = float64(i) + 0.5
	}
	m := machine.New()
	for i := 0; i < b.N; i++ {
		m.Reset()
		r := grid.SquareFor(machine.Coord{}, n)
		placeBench(m, grid.RowMajor(r), half)
		sortnet.Run(m, sortnet.BitonicMerge(n), grid.RowMajor(r), "v", order.Float64)
	}
	report(b, m)
}

// BenchmarkMeshSort — Section II-B: shearsort's polynomial Theta(sqrt n
// log n) depth, the mesh baseline the paper improves on.
func BenchmarkMeshSort(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(8))
	vals := workload.Array(workload.Random, n, rng)
	m := machine.New()
	for i := 0; i < b.N; i++ {
		m.Reset()
		r := grid.SquareFor(machine.Coord{}, n)
		placeBench(m, grid.RowMajor(r), vals)
		sortnet.Shearsort(m, r, "v", order.Float64)
	}
	report(b, m)
}

// BenchmarkAllPairs — Lemma V.5: O(n^{5/2}) energy, O(log n) depth.
func BenchmarkAllPairs(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			vals := workload.Array(workload.Random, n, rng)
			m := machine.New()
			for i := 0; i < b.N; i++ {
				m.Reset()
				r := grid.SquareFor(machine.Coord{}, n)
				tr := grid.RowMajor(r)
				placeBench(m, tr, vals)
				side := core.AllPairsScratchSide(n)
				core.AllPairsSort(m, tr, "v", n, r.RightOf(side, side), order.Float64)
			}
			report(b, m)
		})
	}
}

// BenchmarkSelectSorted — Lemma V.6: O(n^{5/4}) energy, O(log n) depth.
func BenchmarkSelectSorted(b *testing.B) {
	for _, n := range []int{4096, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(10))
			half := n / 2
			av := workload.Array(workload.Sorted, half, rng)
			bv := workload.Array(workload.Sorted, half, rng)
			side := grid.Pow2Side(half)
			m := machine.New()
			for i := 0; i < b.N; i++ {
				m.Reset()
				ra := grid.Square(machine.Coord{}, side)
				rb := grid.Square(machine.Coord{Row: 0, Col: ra.W + 1}, side)
				tA := grid.Slice(grid.RowMajor(ra), 0, half)
				tB := grid.Slice(grid.RowMajor(rb), 0, half)
				placeBench(m, tA, av)
				placeBench(m, tB, bv)
				scratch := grid.Square(machine.Coord{Row: ra.H + 1, Col: 0}, core.SelectScratchSide(n))
				core.SelectInSorted(m, tA, tB, "v", n/2, scratch, order.Float64)
			}
			report(b, m)
		})
	}
}

// BenchmarkMerge2D — Lemma V.7 / Figure 3: O(n^{3/2}) energy, O(log^2 n)
// depth.
func BenchmarkMerge2D(b *testing.B) {
	for _, n := range []int{2048, 8192} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			quarter := n / 2
			m := machine.New()
			for i := 0; i < b.N; i++ {
				m.Reset()
				side := 2
				for side*side/4 < quarter {
					side *= 2
				}
				r := grid.Square(machine.Coord{}, side)
				q := r.Quadrants()
				tA, tB := grid.RowMajor(q[0]), grid.RowMajor(q[1])
				for j := 0; j < quarter; j++ {
					m.Set(tA.At(j), "v", float64(2*j))
					m.Set(tB.At(j), "v", float64(2*j+1))
				}
				core.Merge(m, tA, tB, "v", r.TopHalf(), order.Float64)
			}
			report(b, m)
		})
	}
}

// BenchmarkPermutation — Lemma V.1: the reversal permutation's
// Omega(n^{3/2}) energy (vs the free identity).
func BenchmarkPermutation(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(11))
	for _, kind := range []workload.PermKind{workload.PermReversal, workload.PermTranspose, workload.PermRandom} {
		b.Run(string(kind), func(b *testing.B) {
			perm := workload.Permutation(kind, n, rng)
			m := machine.New()
			for i := 0; i < b.N; i++ {
				m.Reset()
				r := grid.SquareFor(machine.Coord{}, n)
				tr := grid.RowMajor(r)
				placeBench(m, tr, nil)
				core.Permute(m, tr, "v", tr, "v", perm)
			}
			report(b, m)
		})
	}
}

// BenchmarkEREW — Lemma VII.1: O(p(sqrt p + sqrt m)) energy and O(1) depth
// per EREW step (TreeSum as the workload).
func BenchmarkEREW(b *testing.B) {
	const n = 256
	m := machine.New()
	for i := 0; i < b.N; i++ {
		m.Reset()
		init := make([]machine.Value, n)
		for j := range init {
			init[j] = 1.0
		}
		sim := pram.New(m, pram.TreeSum{N: n}, pram.EREW, init)
		if err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
	report(b, m)
}

// BenchmarkCRCW — Lemma VII.2: sorting-based concurrent access, O(log^3 p)
// depth per step (one concurrent-read step as the workload).
func BenchmarkCRCW(b *testing.B) {
	for _, p := range []int{256, 1024} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			m := machine.New()
			for i := 0; i < b.N; i++ {
				m.Reset()
				sim := pram.New(m, pram.ConcurrentRead{P: p}, pram.CRCW, []machine.Value{1.0})
				if err := sim.Run(); err != nil {
					b.Fatal(err)
				}
			}
			report(b, m)
		})
	}
}

// BenchmarkSpMVvsPRAM — Section VIII: the direct SpMV against the
// PRAM-simulation upper bound (log-factor depth/distance gap).
func BenchmarkSpMVvsPRAM(b *testing.B) {
	const n = 32
	rng := rand.New(rand.NewSource(12))
	a := workload.SparseMatrix(workload.MatUniform, n, 4*n, rng)
	x := workload.Array(workload.Random, n, rng)
	b.Run("direct", func(b *testing.B) {
		m := machine.New()
		for i := 0; i < b.N; i++ {
			m.Reset()
			if _, err := spmv.Multiply(m, a, x); err != nil {
				b.Fatal(err)
			}
		}
		report(b, m)
	})
	b.Run("pram-baseline", func(b *testing.B) {
		m := machine.New()
		for i := 0; i < b.N; i++ {
			m.Reset()
			if _, err := spmv.MultiplyPRAM(m, a, x); err != nil {
				b.Fatal(err)
			}
		}
		report(b, m)
	})
}

// BenchmarkTreefix — the Section II-A comparison: Euler-tour treefix sums
// at Theta(n) energy on any tree shape.
func BenchmarkTreefix(b *testing.B) {
	for _, shape := range []string{"path", "balanced"} {
		b.Run(shape, func(b *testing.B) {
			const n = 4096
			var tr tree.Tree
			if shape == "path" {
				tr = tree.Path(n)
			} else {
				tr = tree.Balanced(n)
			}
			values := make([]float64, n)
			for i := range values {
				values[i] = 1
			}
			m := machine.New()
			for i := 0; i < b.N; i++ {
				m.Reset()
				if _, err := tree.RootfixSum(m, tr, values); err != nil {
					b.Fatal(err)
				}
			}
			report(b, m)
		})
	}
}

// BenchmarkGNNForward — the paper's motivating application: a sort-pooling
// GNN forward pass (aggregation SpMVs + spatial SortPooling).
func BenchmarkGNNForward(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	const nodes = 64
	g := gnn.Graph{Nodes: nodes}
	for i := 0; i < 4*nodes; i++ {
		g.Edges = append(g.Edges, gnn.Edge{U: rng.Intn(nodes), V: rng.Intn(nodes), W: 1})
	}
	feats := make(gnn.Features, 2)
	for c := range feats {
		feats[c] = workload.Array(workload.Random, nodes, rng)
	}
	md := gnn.Model{Layers: 2, TopK: 16}
	m := machine.New()
	for i := 0; i < b.N; i++ {
		m.Reset()
		if _, _, err := md.Forward(m, g, feats); err != nil {
			b.Fatal(err)
		}
	}
	report(b, m)
}

// BenchmarkSweepScan — the harness end to end: a 12-point Z-order scan
// sweep (n=4096) through internal/harness on pooled machines, at one
// worker and at GOMAXPROCS workers. The two must produce identical rows;
// on a multi-core machine the second runs a multiple faster.
func BenchmarkSweepScan(b *testing.B) {
	point := func(i int, env *harness.Env) []harness.Row {
		const n = 4096
		vals := workload.Array(workload.Random, n, env.Rng)
		mm := env.Measure(func(m *machine.Machine) {
			r := grid.SquareFor(machine.Coord{}, n)
			placeBench(m, grid.ZOrder(r), vals)
			collectives.Scan(m, r, "v", collectives.Add, 0.0)
		})
		return harness.One(i, float64(mm.Energy))
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			h := harness.New(1, harness.WithWorkers(workers))
			for i := 0; i < b.N; i++ {
				h.Go("bench-scan", 12, point).Rows()
			}
		})
	}
}
