package harness

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/simcache"
	"repro/internal/trace"
)

// TestCacheWarmSweepIdenticalAndSimulationFree: a second identical sweep on
// a warmed cache must return byte-identical rows without executing a single
// point function (no machine lease, no RNG draw, no simulation).
func TestCacheWarmSweepIdenticalAndSimulationFree(t *testing.T) {
	cache := simcache.New(simcache.Memory(), 0)
	var executions atomic.Int32
	counted := func(i int, env *Env) []Row {
		executions.Add(1)
		return measurePoint(i, env)
	}

	cold := New(42, WithWorkers(3), WithCache(cache), WithCacheVersion("t")).Go("warm", 13, counted).Rows()
	if got := executions.Load(); got != 13 {
		t.Fatalf("cold run executed %d points, want 13", got)
	}
	plain := New(42, WithWorkers(3)).Go("warm", 13, measurePoint).Rows()
	if !reflect.DeepEqual(cold, plain) {
		t.Fatal("cold cached run's rows differ from an uncached run")
	}

	warmRunner := New(42, WithWorkers(3), WithCache(cache), WithCacheVersion("t"))
	warm := warmRunner.Go("warm", 13, counted)
	rows := warm.Rows()
	if got := executions.Load(); got != 13 {
		t.Errorf("warm run executed %d extra points, want 0 (all hits)", got-13)
	}
	if !reflect.DeepEqual(rows, plain) {
		t.Fatal("warm rows differ from the uncached run")
	}
	if warm.CacheHits() != 13 {
		t.Errorf("warm sweep reports %d hits, want 13", warm.CacheHits())
	}
	if n := warmRunner.RowsSimulated(); n != 0 {
		t.Errorf("warm runner simulated %d rows, want 0", n)
	}
	if st := cache.Stats(); st.Hits != 13 || st.Misses != 13 {
		t.Errorf("cache stats = %+v, want 13 hits / 13 misses", st)
	}
}

// TestCacheKeyedBySeedAndOptions: changing the runner seed, shard count,
// batch mode or the sweep's congestion option must miss — the workload or
// the machine configuration differs, so serving the old rows would be a
// stale-hit bug (for shards/batch the rows would coincide, but the key is
// deliberately conservative; see simcache.Key).
func TestCacheKeyedBySeedAndOptions(t *testing.T) {
	cache := simcache.New(simcache.Memory(), 0)
	base := []Option{WithCache(cache), WithCacheVersion("t"), WithWorkers(1)}
	New(1, base...).Go("keyed", 4, measurePoint).Rows()
	if st := cache.Stats(); st.Misses != 4 {
		t.Fatalf("priming run: %+v", st)
	}
	variants := []struct {
		name string
		seed int64
		opts []Option
		sw   []SweepOption
	}{
		{"seed", 2, base, nil},
		{"shards", 1, append([]Option{WithShards(2)}, base...), nil},
		{"batch", 1, append([]Option{WithBatchSends()}, base...), nil},
		{"congestion", 1, base, []SweepOption{WithCongestion()}},
		{"version", 1, []Option{WithCache(cache), WithCacheVersion("t2"), WithWorkers(1)}, nil},
	}
	for _, v := range variants {
		before := cache.Stats().Hits
		New(v.seed, v.opts...).Go("keyed", 4, measurePoint, v.sw...).Rows()
		if after := cache.Stats().Hits; after != before {
			t.Errorf("%s variant hit the cache (%d -> %d hits); key must separate it", v.name, before, after)
		}
	}
	// And the unchanged configuration still hits.
	before := cache.Stats().Hits
	New(1, base...).Go("keyed", 4, measurePoint).Rows()
	if got := cache.Stats().Hits - before; got != 4 {
		t.Errorf("identical rerun scored %d hits, want 4", got)
	}
}

// TestCriticalPathCheckFiresOnMissesOnly is the cache half of the
// verification contract: tampering that trips WithCriticalPathCheck still
// panics on a miss (so bad rows are never stored), while the warmed rerun
// of an honest sweep leases no machine and therefore skips verification
// entirely instead of re-simulating just to re-check.
func TestCriticalPathCheckFiresOnMissesOnly(t *testing.T) {
	cache := simcache.New(simcache.Memory(), 0)

	tamper := func(i int, env *Env) []Row {
		m := env.Machine()
		m.Set(machine.Coord{}, "v", 1.0)
		m.Send(machine.Coord{}, "v", machine.Coord{Row: 2}, "v")
		injectEvent(m, trace.Event{Seq: 99, From: trace.Coord{Row: 2}, To: trace.Coord{Row: 4},
			Dist: 2, DepthBefore: 1, DepthAfter: 2, DistBefore: 2, DistAfter: 4})
		return One(i)
	}
	func() {
		defer func() {
			if _, ok := recover().(*PointPanic); !ok {
				t.Error("tampered miss did not raise a PointPanic: cpcheck no longer fires on the miss path")
			}
		}()
		New(7, WithWorkers(1), WithCriticalPathCheck(), WithCache(cache), WithCacheVersion("t")).
			Go("cp-cache-tamper", 1, tamper).Rows()
	}()
	if st := cache.Stats(); st.Stores != 0 {
		t.Errorf("a measurement that failed verification was stored (%+v)", st)
	}

	// Honest sweep: cold run verifies and stores; warm run must succeed
	// without executing points — the hit path carries no machine to verify.
	var executions atomic.Int32
	honest := func(i int, env *Env) []Row {
		executions.Add(1)
		mm := env.Measure(func(m *machine.Machine) {
			m.Set(machine.Coord{}, "v", 1.0)
			m.Send(machine.Coord{}, "v", machine.Coord{Row: 3}, "v")
		})
		return One(i, mm.Depth)
	}
	opts := []Option{WithWorkers(2), WithCriticalPathCheck(), WithCache(cache), WithCacheVersion("t")}
	cold := New(7, opts...).Go("cp-cache-honest", 6, honest).Rows()
	warm := New(7, opts...).Go("cp-cache-honest", 6, honest).Rows()
	if executions.Load() != 6 {
		t.Errorf("warm cpcheck run executed %d points, want 0 (hits skip verification)", executions.Load()-6)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("warm rows differ from cold rows under cpcheck")
	}
}

// TestCachePanickedAndSkippedPointsNotStored: neither a panicking point nor
// one skipped by the sweep deadline may leave an entry behind.
func TestCachePanickedAndSkippedPointsNotStored(t *testing.T) {
	cache := simcache.New(simcache.Memory(), 0)
	func() {
		defer func() { recover() }()
		New(1, WithWorkers(1), WithCache(cache), WithCacheVersion("t")).
			Go("boom", 1, func(i int, env *Env) []Row { panic("kaput") }).Rows()
	}()
	if st := cache.Stats(); st.Stores != 0 {
		t.Errorf("panicked point stored rows: %+v", st)
	}

	s := New(1, WithWorkers(1), WithCache(cache), WithCacheVersion("t")).
		Go("late", 3, func(i int, env *Env) []Row {
			time.Sleep(5 * time.Millisecond)
			return One(i)
		}, WithDeadline(time.Nanosecond))
	s.Rows()
	if st := cache.Stats(); int(st.Stores) != 3-s.Skipped() {
		t.Errorf("stores %d + skipped %d != 3 points", st.Stores, s.Skipped())
	}
	// The skipped points must re-run (miss), not resolve to empty rows.
	rows := New(1, WithWorkers(1), WithCache(cache), WithCacheVersion("t")).
		Go("late", 3, func(i int, env *Env) []Row { return One(i) }).Rows()
	if len(rows) != 3 {
		t.Errorf("rerun produced %d rows, want 3", len(rows))
	}
}

// TestSweepProgressReachesTotal covers the per-sweep progress stream: with
// a warmed cache every point resolves at enqueue, and the callback still
// walks done monotonically to total with full cost accounting.
func TestSweepProgressReachesTotal(t *testing.T) {
	cache := simcache.New(simcache.Memory(), 0)
	costs := func(i int) float64 { return float64(i + 1) }
	var wantCost float64
	for i := 0; i < 8; i++ {
		wantCost += costs(i)
	}
	check := func(label string, runner *Runner) {
		var calls int
		var lastDone int
		var lastCost float64
		s := runner.Go("prog", 8, measurePoint,
			WithPointCost(costs),
			WithSweepProgress(func(done, total int, doneCost, totalCost float64) {
				calls++
				if done < lastDone || done > total || total != 8 {
					t.Errorf("%s: non-monotone progress %d/%d after %d", label, done, total, lastDone)
				}
				if totalCost != wantCost {
					t.Errorf("%s: totalCost = %v, want %v", label, totalCost, wantCost)
				}
				lastDone, lastCost = done, doneCost
			}))
		s.Rows()
		if calls != 8 || lastDone != 8 || lastCost != wantCost {
			t.Errorf("%s: %d calls, final %d done / %v cost; want 8 / 8 / %v", label, calls, lastDone, lastCost, wantCost)
		}
	}
	check("cold", New(5, WithWorkers(3), WithCache(cache), WithCacheVersion("t")))
	check("warm", New(5, WithWorkers(3), WithCache(cache), WithCacheVersion("t")))
}
