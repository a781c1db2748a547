// Micro-benchmarks of the simulator's hot paths: message delivery, parallel
// rounds, independent forks, register access and grid reuse. `make bench`
// runs these (plus the end-to-end BenchmarkTable1Sort) and rewrites
// BENCH_machine.json at the repository root.
package machine

import (
	"fmt"
	"testing"

	"repro/internal/trace"
)

// BenchmarkMachineSendChain measures a long relay chain: one Get + one
// delivery per operation, all within or between adjacent tiles.
func BenchmarkMachineSendChain(b *testing.B) {
	m := New()
	m.Set(Coord{0, 0}, "v", 1.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(Coord{0, i % 64}, "v", Coord{0, i%64 + 1}, "v")
	}
}

// BenchmarkMachineSendScattered measures sends between PEs in different
// tiles (cache-unfriendly access pattern).
func BenchmarkMachineSendScattered(b *testing.B) {
	m := New()
	const stride = 61 // co-prime with the tile side
	for i := 0; i < 64; i++ {
		m.Set(Coord{i * stride % 997, i * stride * 7 % 997}, "v", 1.0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := Coord{i * stride % 997, i * stride * 7 % 997}
		c := Coord{(i + 1) * stride % 997, (i + 1) * stride * 7 % 997}
		m.SendValue(a, c, "v", 1.0)
	}
}

// BenchmarkMachineSetGet measures the register file fast path.
func BenchmarkMachineSetGet(b *testing.B) {
	m := New()
	c := Coord{5, 5}
	m.Set(c, "v", 1.0)
	m.Set(c, "w", 2.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Set(c, "v", i)
		_ = m.Get(c, "v")
	}
}

// BenchmarkMachinePar measures a Par round of k messages on the ideal grid
// and on folded fabrics, where every message's endpoints fold onto their
// physical homes and every register write updates the physical occupancy
// counts. Steady-state rounds must not allocate: the machine owns one
// reusable round buffer and one bound send function.
func BenchmarkMachinePar(b *testing.B) {
	for _, bk := range []Backend{Ideal(), Mesh(8, 8, 2), Torus(8, 8, 2)} {
		for _, k := range []int{16, 256} {
			name := fmt.Sprintf("msgs=%d", k)
			if bk.Finite() {
				name = bk.String() + "/" + name
			}
			b.Run(name, func(b *testing.B) {
				m := New()
				m.SetBackend(bk)
				vals := make([]Value, k) // pre-boxed so the bench measures the machine, not interface conversion
				for i := 0; i < k; i++ {
					m.Set(Coord{0, i}, "v", float64(i))
					vals[i] = float64(i)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Par(func(send func(from, to Coord, dstReg Reg, v Value)) {
						for j := 0; j < k; j++ {
							send(Coord{0, j}, Coord{1, j}, "v", vals[j])
						}
					})
				}
			})
		}
	}
}

// BenchmarkMachineWires measures the counting kernel sorting networks run
// level after level, in the layout of Shearsort's column phases: 2^16 wires
// bound column by column on a 256x256 region, one op being one odd-even
// transposition level over every column. The wires' clocks and homes (2 MB)
// do not fit in the L1 or L2 cache, so a kernel that chased PE structs
// instead of dense clocks would show here.
func BenchmarkMachineWires(b *testing.B) {
	const side = 256
	m := New()
	m.SetBatchSends(true)
	cs := make([]Coord, 0, side*side)
	for col := 0; col < side; col++ {
		for row := 0; row < side; row++ {
			cs = append(cs, Coord{row, col})
		}
	}
	w := m.BindWires(cs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for base := 0; base < len(cs); base += side {
			for j := i % 2; j+1 < side; j += 2 {
				w.Exchange(base+j, base+j+1)
			}
		}
	}
	b.StopTimer()
	w.Close()
}

// BenchmarkMachineShardedRound measures one large Par round delivered
// across shards (charge at issue, grouping, per-shard delivery, join). The
// shard count is reported as a metric so bench-compare can refuse to diff
// runs taken at different parallelism.
func BenchmarkMachineShardedRound(b *testing.B) {
	const k = 4096 // >= defaultShardMin, so the sharded path actually runs
	const shards = 4
	m := New()
	m.SetShards(shards)
	vals := make([]Value, k)
	for i := 0; i < k; i++ {
		m.Set(Coord{0, i}, "v", float64(i))
		vals[i] = float64(i)
	}
	round := func(send func(from, to Coord, dstReg Reg, v Value)) {
		for j := 0; j < k; j++ {
			send(Coord{0, j}, Coord{1, j}, "v", vals[j])
		}
	}
	// One round before the timer grows the receivers' register files, a
	// one-time cost that would otherwise be amortized into allocs/op.
	m.Par(round)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Par(round)
	}
	b.ReportMetric(float64(shards), "shards")
}

// BenchmarkMachineIndependent measures a two-branch fork relaying through a
// shared PE (journal + rollback machinery).
func BenchmarkMachineIndependent(b *testing.B) {
	m := New()
	m.Set(Coord{0, 0}, "v", 1.0)
	m.Set(Coord{9, 9}, "v", 2.0)
	shared := Coord{5, 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Independent(
			func() { m.SendValue(Coord{0, 0}, shared, "a", 1.0) },
			func() { m.SendValue(Coord{9, 9}, shared, "b", 2.0) },
		)
	}
}

// BenchmarkMachineReset measures grid reuse for sweeps: populate a 64x64
// region, then Reset. The first population builds the tiles and per-PE
// register slices and happens before the timer, so the loop measures the
// steady-state reuse cycle — which must be allocation-free.
func BenchmarkMachineReset(b *testing.B) {
	m := New()
	populate := func() {
		for r := 0; r < 64; r++ {
			for c := 0; c < 64; c++ {
				m.Set(Coord{r, c}, "v", 1.0)
			}
		}
	}
	populate()
	m.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		populate()
		m.Reset()
	}
}

// BenchmarkMachineResetSparse measures Reset on a pooled machine whose
// grid was warmed by a much larger earlier run: only the tiles the last
// point touched are scanned, not the whole 256x256 footprint.
func BenchmarkMachineResetSparse(b *testing.B) {
	m := New()
	for r := 0; r < 256; r++ {
		for c := 0; c < 256; c++ {
			m.Set(Coord{r, c}, "v", 1.0)
		}
	}
	m.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < 16; r++ {
			for c := 0; c < 16; c++ {
				m.Set(Coord{r, c}, "v", 1.0)
			}
		}
		m.Reset()
	}
}

// BenchmarkMachineSendTraced measures the relay chain with a trace sink
// attached — the price of observability when it is switched on. (The
// disabled case is covered by BenchmarkMachineSendChain, whose nil sink
// check is the only cost and which the bench-compare gate holds flat.)
func BenchmarkMachineSendTraced(b *testing.B) {
	m := New()
	var count int64
	m.SetSink(trace.SinkFunc(func(e *trace.Event) { count += e.Dist }))
	m.Set(Coord{0, 0}, "v", 1.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(Coord{0, i % 64}, "v", Coord{0, i%64 + 1}, "v")
	}
	_ = count
}

// BenchmarkMachineCongestion measures XY-routed link accounting on a
// diagonal walk (one bump per hop).
func BenchmarkMachineCongestion(b *testing.B) { benchCongestion(b, Ideal()) }

// BenchmarkMachineCongestionFolded is BenchmarkMachineCongestion on folded
// fabrics: both endpoints fold onto their homes, and the walk between them
// is 30 hops on either fabric (the torus one wraps at the fabric edges).
func BenchmarkMachineCongestionFolded(b *testing.B) {
	for _, bk := range []Backend{Mesh(32, 32, 2), Torus(32, 32, 2)} {
		b.Run(bk.String(), func(b *testing.B) { benchCongestion(b, bk) })
	}
}

func benchCongestion(b *testing.B, bk Backend) {
	m := New()
	m.SetBackend(bk)
	m.EnableCongestionTracking()
	m.Set(Coord{0, 0}, "v", 1.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SendValue(Coord{0, 0}, Coord{31, 31}, "v", 1.0)
	}
}
