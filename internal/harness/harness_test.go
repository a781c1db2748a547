package harness

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/trace"
)

// measurePoint is a representative sweep point: draw a workload from the
// point RNG, run it on the pooled machine, report size and metrics.
func measurePoint(i int, env *Env) []Row {
	n := 4 + i%7
	vals := make([]float64, n)
	for k := range vals {
		vals[k] = env.Rng.Float64()
	}
	mm := env.Measure(func(m *machine.Machine) {
		for k, v := range vals {
			m.Set(machine.Coord{Col: k}, "v", v)
		}
		for k := 0; k < n-1; k++ {
			m.Send(machine.Coord{Col: k}, "v", machine.Coord{Col: k + 1}, "v")
		}
	})
	return One(i, n, float64(mm.Energy), mm.Depth, env.Rng.Int63())
}

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	var want []Row
	for _, workers := range []int{1, 2, 4, 13} {
		rows := New(42, WithWorkers(workers)).Go("det", 31, measurePoint).Rows()
		if workers == 1 {
			want = rows
			continue
		}
		if !reflect.DeepEqual(rows, want) {
			t.Fatalf("workers=%d rows differ from sequential\nseq: %v\npar: %v", workers, want, rows)
		}
	}
}

func TestRowOrderUnderScrambledCompletion(t *testing.T) {
	// Early points sleep so later points finish first; rows must still come
	// back in point order.
	rows := New(1, WithWorkers(8)).Go("order", 16, func(i int, env *Env) []Row {
		time.Sleep(time.Duration(16-i) * time.Millisecond)
		return One(i)
	}).Rows()
	for i, r := range rows {
		if r[0] != i {
			t.Fatalf("row %d = %v, want [%d]", i, r, i)
		}
	}
}

func TestMultiRowPointsFlattenInOrder(t *testing.T) {
	rows := New(1, WithWorkers(4)).Go("multi", 5, func(i int, env *Env) []Row {
		out := make([]Row, i%3+1)
		for j := range out {
			out[j] = Row{i, j}
		}
		return out
	}).Rows()
	want := 0
	for i := 0; i < 5; i++ {
		want += i%3 + 1
	}
	if len(rows) != want {
		t.Fatalf("flattened %d rows, want %d", len(rows), want)
	}
	for k := 1; k < len(rows); k++ {
		pi, pj := rows[k-1][0].(int), rows[k-1][1].(int)
		ci, cj := rows[k][0].(int), rows[k][1].(int)
		if ci < pi || (ci == pi && cj != pj+1) {
			t.Fatalf("rows out of order at %d: %v after %v", k, rows[k], rows[k-1])
		}
	}
}

func TestPointSeedIndependentOfSiblingPoints(t *testing.T) {
	// A point's RNG stream depends only on (seed, sweep, index) — points
	// must not perturb each other even when they draw different amounts.
	draws := func(workers, points int) []int64 {
		out := make([]int64, points)
		New(7, WithWorkers(workers)).Go("iso", points, func(i int, env *Env) []Row {
			for k := 0; k < i*3; k++ { // i-dependent extra draws
				env.Rng.Int63()
			}
			out[i] = env.Rng.Int63()
			return nil
		}).Rows()
		return out
	}
	if !reflect.DeepEqual(draws(1, 9), draws(6, 9)) {
		t.Error("per-point RNG streams depend on worker count")
	}
	// And distinct points/sweeps get distinct seeds.
	if pointSeed(1, "a", 0) == pointSeed(1, "a", 1) || pointSeed(1, "a", 0) == pointSeed(1, "b", 0) ||
		pointSeed(1, "a", 0) == pointSeed(2, "a", 0) {
		t.Error("pointSeed collisions across index/name/base")
	}
}

func TestOverlappedSweepsShareWorkers(t *testing.T) {
	r := New(3, WithWorkers(4))
	a := r.Go("a", 9, measurePoint)
	b := r.Go("b", 9, measurePoint)
	ar, br := a.Rows(), b.Rows()
	// Same point function under a different sweep name → different
	// workloads; under the same name → identical rows.
	if reflect.DeepEqual(ar, br) {
		t.Error("sweeps 'a' and 'b' produced identical rows; names should key the RNG")
	}
	if again := r.Go("a", 9, measurePoint).Rows(); !reflect.DeepEqual(ar, again) {
		t.Error("re-running sweep 'a' on the same runner changed its rows")
	}
}

func TestPointPanicPropagates(t *testing.T) {
	defer func() {
		v := recover()
		pp, ok := v.(*PointPanic)
		if !ok {
			t.Fatalf("recovered %T %v, want *PointPanic", v, v)
		}
		if pp.Sweep != "boom" || pp.Index != 3 || pp.Value != "kaput" {
			t.Errorf("PointPanic = {%q %d %v}", pp.Sweep, pp.Index, pp.Value)
		}
		if len(pp.Stack) == 0 {
			t.Error("PointPanic carries no stack")
		}
	}()
	New(1, WithWorkers(2)).Go("boom", 4, func(i int, env *Env) []Row {
		if i == 3 {
			panic("kaput")
		}
		return One(i)
	}).Rows()
	t.Fatal("Rows returned despite point panic")
}

func TestWithCongestionScopedToSweep(t *testing.T) {
	r := New(1, WithWorkers(1))
	rows := r.Go("cong", 1, func(i int, env *Env) []Row {
		m := env.Machine()
		m.Set(machine.Coord{}, "v", 1.0)
		m.Send(machine.Coord{}, "v", machine.Coord{Col: 5}, "v")
		return One(float64(m.MaxCongestion()))
	}, WithCongestion()).Rows()
	if rows[0][0] != 1.0 {
		t.Errorf("congestion sweep measured max load %v, want 1", rows[0][0])
	}
	// The machine goes back to the pool untracked: a follow-up plain sweep
	// must see zero congestion accounting.
	rows = r.Go("plain", 1, func(i int, env *Env) []Row {
		m := env.Machine()
		m.Set(machine.Coord{}, "v", 1.0)
		m.Send(machine.Coord{}, "v", machine.Coord{Col: 5}, "v")
		return One(float64(m.MaxCongestion()))
	}).Rows()
	if rows[0][0] != 0.0 {
		t.Errorf("plain sweep after congestion sweep measured %v, want 0 (tracker leaked through pool)", rows[0][0])
	}
}

func TestMachineResetBetweenMeasures(t *testing.T) {
	New(1).Go("reset", 1, func(i int, env *Env) []Row {
		first := env.Measure(func(m *machine.Machine) {
			m.Set(machine.Coord{}, "v", 1.0)
			m.Send(machine.Coord{}, "v", machine.Coord{Col: 9}, "v")
		})
		second := env.Measure(func(m *machine.Machine) {
			if m.Metrics() != (machine.Metrics{}) {
				panic("Measure did not reset the machine")
			}
			if m.Has(machine.Coord{}, "v") {
				panic("registers survived into second Measure")
			}
		})
		if second.Energy != 0 {
			panic(fmt.Sprintf("second measure energy = %d", second.Energy))
		}
		_ = first
		return nil
	}).Rows()
}

// TestProgressReporting: every point delivers one callback, and the last
// one carries the final point counts; points without a cost hint count as
// cost 1 each.
func TestProgressReporting(t *testing.T) {
	ch := make(chan Progress, 16)
	r := New(1, WithWorkers(4), WithProgress(func(p Progress) { ch <- p }))
	r.Go("p", 10, func(i int, env *Env) []Row { return One(i) }).Rows()
	// Each point ticks the runner, delivering its callback synchronously,
	// before it counts as done, so all 10 callbacks are queued once Rows
	// returns.
	if n := len(ch); n != 10 {
		t.Fatalf("%d progress callbacks queued when Rows returned, want 10", n)
	}
	var last Progress
	for i := 0; i < 10; i++ {
		last = <-ch
	}
	if last.Done != 10 || last.Total != 10 {
		t.Errorf("final progress %d/%d, want 10/10", last.Done, last.Total)
	}
	if last.DoneCost != 10 || last.TotalCost != 10 {
		t.Errorf("final cost progress %v/%v, want 10/10 (unhinted points cost 1)", last.DoneCost, last.TotalCost)
	}
}

func TestWorkersDefaultAndFloor(t *testing.T) {
	if w := New(1).Workers(); w < 1 {
		t.Errorf("default workers = %d", w)
	}
	if w := New(1, WithWorkers(-3)).Workers(); w != New(1).Workers() {
		t.Errorf("negative WithWorkers changed count to %d", w)
	}
}

// TestSweepMatchesDirectRuns cross-checks the harness against hand-rolled
// sequential measurement: same seeds, same machines, same metrics.
func TestSweepMatchesDirectRuns(t *testing.T) {
	rows := New(99, WithWorkers(5)).Go("x", 8, measurePoint).Rows()
	for i := 0; i < 8; i++ {
		rng := rand.New(rand.NewSource(pointSeed(99, "x", i)))
		n := 4 + i%7
		vals := make([]float64, n)
		for k := range vals {
			vals[k] = rng.Float64()
		}
		m := machine.New()
		for k, v := range vals {
			m.Set(machine.Coord{Col: k}, "v", v)
		}
		for k := 0; k < n-1; k++ {
			m.Send(machine.Coord{Col: k}, "v", machine.Coord{Col: k + 1}, "v")
		}
		want := Row{i, n, float64(m.Metrics().Energy), m.Metrics().Depth, rng.Int63()}
		if !reflect.DeepEqual(rows[i], want) {
			t.Errorf("point %d: harness %v, direct %v", i, rows[i], want)
		}
	}
}

// TestWithSinkSharedHeatmap feeds one Synchronized heatmap from every
// worker of a parallel sweep and cross-checks its totals against the summed
// point metrics. Run under -race this is the concurrency test for
// runner-level sinks.
func TestWithSinkSharedHeatmap(t *testing.T) {
	hm := trace.NewHeatmap()
	r := New(1, WithWorkers(4), WithSink(trace.Synchronized(hm)))
	var energy, messages int64
	rows := r.Go("sink-heatmap", 32, func(i int, env *Env) []Row {
		mm := env.Measure(func(m *machine.Machine) {
			n := 4 + i%5
			for k := 0; k < n; k++ {
				m.Set(machine.Coord{Col: k}, "v", float64(k))
			}
			for k := 0; k < n-1; k++ {
				m.Send(machine.Coord{Col: k}, "v", machine.Coord{Col: k + 1}, "v")
			}
		})
		atomic.AddInt64(&energy, mm.Energy)
		atomic.AddInt64(&messages, mm.Messages)
		return One(i)
	}).Rows()
	if len(rows) != 32 {
		t.Fatalf("got %d rows, want 32", len(rows))
	}
	if hm.Events() != messages {
		t.Errorf("heatmap observed %d events, points sent %d messages", hm.Events(), messages)
	}
	var traffic int64
	_, cells := hm.Grid()
	for _, row := range cells {
		for _, c := range row {
			traffic += c.SendTraffic
		}
	}
	if traffic != energy {
		t.Errorf("heatmap send traffic %d, summed point energy %d", traffic, energy)
	}
}

// TestWithCriticalPathCheckPasses runs a parallel sweep with per-point
// verification enabled: every measurement (including several per point, and
// Par rounds) must reconstruct chains matching its Depth and Distance.
func TestWithCriticalPathCheckPasses(t *testing.T) {
	r := New(7, WithWorkers(4), WithCriticalPathCheck())
	rows := r.Go("cp-check", 24, func(i int, env *Env) []Row {
		// Two measurements per point: verify must fire between them too.
		_ = env.Measure(func(m *machine.Machine) {
			m.Set(machine.Coord{}, "v", 1.0)
			m.Send(machine.Coord{}, "v", machine.Coord{Row: 3}, "v")
		})
		mm := env.Measure(func(m *machine.Machine) {
			n := 3 + i%6
			for k := 0; k < n; k++ {
				m.Set(machine.Coord{Col: k}, "v", float64(k))
			}
			m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
				for k := 0; k < n; k++ {
					send(machine.Coord{Col: k}, machine.Coord{Row: 1, Col: k}, "v", float64(k))
				}
			})
			for k := 0; k < n-1; k++ {
				m.Send(machine.Coord{Row: 1, Col: k}, "v", machine.Coord{Row: 1, Col: k + 1}, "v")
			}
		})
		return One(i, mm.Depth)
	}).Rows()
	if len(rows) != 24 {
		t.Fatalf("got %d rows, want 24", len(rows))
	}
}

// injectEvent feeds e to the critical-path check leased with m, as if the
// machine had sent it. The check is the machine's only sink.
func injectEvent(m *machine.Machine, e trace.Event) {
	m.Sink().(*clockReplay).Event(&e)
}

// TestWithCriticalPathCheckCatchesTampering: a point whose event stream
// disagrees with the machine must fail the check with a PointPanic,
// whether the stream carries a message the machine never sent, misses one
// it did send, or starts a chain below zero.
func TestWithCriticalPathCheckCatchesTampering(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(m *machine.Machine)
	}{
		{"extra deeper event", func(m *machine.Machine) {
			injectEvent(m, trace.Event{Seq: 99, From: trace.Coord{Row: 2}, To: trace.Coord{Row: 4},
				Dist: 2, DepthBefore: 1, DepthAfter: 2, DistBefore: 2, DistAfter: 4})
		}},
		{"send with the sink detached", func(m *machine.Machine) {
			s := m.Sink()
			m.SetSink(nil)
			m.Send(machine.Coord{Row: 2}, "v", machine.Coord{Row: 5}, "v")
			m.SetSink(s)
		}},
		{"negative DepthBefore", func(m *machine.Machine) {
			injectEvent(m, trace.Event{Seq: 2, From: trace.Coord{Row: 2}, To: trace.Coord{Row: 4},
				Dist: 2, DepthBefore: -1, DepthAfter: 0, DistBefore: 2, DistAfter: 4})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				v := recover()
				pp, ok := v.(*PointPanic)
				if !ok {
					t.Fatalf("recovered %T %v, want *PointPanic", v, v)
				}
				if pp.Sweep != "cp-tamper" || !strings.Contains(fmt.Sprint(pp.Value), "critical-path check") {
					t.Errorf("panic %q from sweep %q, want the critical-path check's from cp-tamper", pp.Value, pp.Sweep)
				}
			}()
			New(7, WithWorkers(1), WithCriticalPathCheck()).Go("cp-tamper", 1, func(i int, env *Env) []Row {
				m := env.Machine()
				m.Set(machine.Coord{}, "v", 1.0)
				m.Send(machine.Coord{}, "v", machine.Coord{Row: 2}, "v")
				tc.tamper(m)
				return One(i)
			}).Rows()
			t.Fatal("sweep with tampered event stream did not panic")
		})
	}
}

// TestReleasedMachinesDropSinks: machines returned to the pool must not
// carry a sink into the next lease when the runner has none configured.
func TestReleasedMachinesDropSinks(t *testing.T) {
	r := New(1, WithWorkers(1), WithCriticalPathCheck())
	_ = r.Go("first", 1, func(i int, env *Env) []Row {
		m := env.Machine()
		m.Set(machine.Coord{}, "v", 1.0)
		m.Send(machine.Coord{}, "v", machine.Coord{Row: 1}, "v")
		return One(i)
	}).Rows()
	m := machines.Get().(*machine.Machine)
	if s := m.Sink(); s != nil {
		t.Errorf("pooled machine still carries sink %T", s)
	}
}

// TestSharedPoolInterleavedRunners: runners share one machine pool, so a
// machine released by one runner is leased by the next. Two runners with
// different backends, sinks, shard counts, batch modes and congestion
// settings run sweeps concurrently, round after round: every lease must
// carry its own runner's settings, and every released machine must be
// back at the defaults.
func TestSharedPoolInterleavedRunners(t *testing.T) {
	type setup struct {
		sink    trace.Sink
		shards  int
		batch   bool
		backend machine.Backend
		cong    bool
	}
	sinkA := trace.Synchronized(trace.NewCounters())
	a := setup{sink: sinkA, shards: 3, batch: true, backend: machine.Mesh(4, 4, 4), cong: true}
	b := setup{shards: 1, backend: machine.Torus(8, 8, 2)}
	ra := New(1, WithWorkers(2), WithSink(sinkA), WithShards(3), WithBatchSends(), WithBackend(a.backend))
	rb := New(2, WithWorkers(2), WithBackend(b.backend))
	point := func(want setup) PointFunc {
		return func(i int, env *Env) []Row {
			m := env.Machine()
			if m.Sink() != want.sink || m.Shards() != want.shards || m.BatchSends() != want.batch ||
				m.Backend().String() != want.backend.String() {
				t.Errorf("point %d leased sink %v, shards %d, batch %v, backend %q; want %v, %d, %v, %q",
					i, m.Sink(), m.Shards(), m.BatchSends(), m.Backend(), want.sink, want.shards, want.batch, want.backend)
			}
			m.Set(machine.Coord{}, "v", 1.0)
			m.Send(machine.Coord{}, "v", machine.Coord{Col: 9}, "v")
			if tracked := m.MaxCongestion() > 0; tracked != want.cong {
				t.Errorf("point %d: congestion tracking %v, want %v", i, tracked, want.cong)
			}
			return One(i)
		}
	}
	for round := 0; round < 4; round++ {
		sa := ra.Go("interleave-a", 6, point(a), WithCongestion())
		sb := rb.Go("interleave-b", 6, point(b))
		sa.Rows()
		sb.Rows()
	}
	for i := 0; i < 4; i++ {
		m := machines.Get().(*machine.Machine)
		if m.Sink() != nil || m.Shards() != 1 || m.BatchSends() || m.Backend().Finite() {
			t.Errorf("released machine keeps sink %v, shards %d, batch %v, backend %q",
				m.Sink(), m.Shards(), m.BatchSends(), m.Backend())
		}
		m.Set(machine.Coord{}, "v", 1.0)
		m.Send(machine.Coord{}, "v", machine.Coord{Col: 9}, "v")
		if m.MaxCongestion() != 0 {
			t.Error("released machine still tracks congestion")
		}
		m.Reset()
		machines.Put(m)
	}
}
