package harness

import (
	"fmt"
	"testing"

	"repro/internal/collectives"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/simcache"
)

// BenchmarkSweepOverhead measures the harness's per-point cost (queueing,
// RNG seeding, machine lease/reset) with a near-empty point body.
func BenchmarkSweepOverhead(b *testing.B) {
	r := New(1, WithWorkers(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Go("overhead", 16, func(j int, env *Env) []Row {
			env.Machine().Set(machine.Coord{}, "v", 1.0)
			return One(j)
		}).Rows()
	}
}

// scanPoint is a realistic mid-size measurement: place 4096 values and
// scan them, the workhorse of the Table I sweeps.
func scanPoint(i int, env *Env) []Row {
	const n = 4096
	vals := make([]float64, n)
	for k := range vals {
		vals[k] = env.Rng.Float64()
	}
	mm := env.Measure(func(m *machine.Machine) {
		r := grid.SquareFor(machine.Coord{}, n)
		tr := grid.ZOrder(r)
		for k := 0; k < tr.Len(); k++ {
			v := 0.0
			if k < len(vals) {
				v = vals[k]
			}
			m.Set(tr.At(k), "v", v)
		}
		collectives.Scan(m, r, "v", collectives.Add, 0.0)
	})
	return One(i, float64(mm.Energy))
}

// BenchmarkSweepScan runs a 16-point scan sweep at several worker counts;
// on a multi-core machine the wall-clock time per op drops with workers.
func BenchmarkSweepScan(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			r := New(1, WithWorkers(workers))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Go("scan", 16, scanPoint).Rows()
			}
		})
	}
}

// BenchmarkCacheHit measures the same 16-point scan sweep served entirely
// from a warmed result cache — the speedup spatiald and the -cache CLI
// modes deliver on repeat runs. The reported hit_rate metric (1.0 here)
// tells bench-compare the timing measured cache lookups, not simulation,
// so it is never compared against a cold baseline's number.
func BenchmarkCacheHit(b *testing.B) {
	cache := simcache.New(simcache.Memory(), 0)
	warm := New(1, WithWorkers(1), WithCache(cache), WithCacheVersion("bench"))
	warm.Go("scan", 16, scanPoint).Rows()
	before := cache.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := New(1, WithWorkers(1), WithCache(cache), WithCacheVersion("bench"))
		if s := r.Go("scan", 16, scanPoint); s.CacheHits() != 16 {
			s.Rows()
			b.Fatalf("cache hits = %d, want 16", s.CacheHits())
		}
	}
	b.StopTimer()
	st := cache.Stats()
	hits := st.Hits - before.Hits
	if lookups := hits + st.Misses - before.Misses; lookups > 0 {
		b.ReportMetric(float64(hits)/float64(lookups), "hit_rate")
	}
}
