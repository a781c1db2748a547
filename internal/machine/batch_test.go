package machine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fabric"
	"repro/internal/trace"
)

// batchWorkload drives m through a deterministic mix of Par rounds,
// singleton sends, self-sends, register collisions and nested Independent
// forks — every code path the sharded executor must reproduce
// byte-identically. The same workload runs on sequential and sharded
// machines alike.
func batchWorkload(m *Machine, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const side = 40
	at := func(i int) Coord { return Coord{i / side, i % side} }
	for i := 0; i < side*side; i++ {
		m.Set(at(i), "v", float64(i))
	}
	// A few big rounds with collisions and self-sends.
	for r := 0; r < 4; r++ {
		m.Par(func(send func(from, to Coord, dstReg Reg, v Value)) {
			for j := 0; j < 3000; j++ {
				from := at(rng.Intn(side * side))
				to := at(rng.Intn(side * side))
				send(from, to, "v", float64(j))
			}
		})
	}
	// Chained singletons between rounds so sender clocks differ.
	for j := 0; j < 50; j++ {
		m.Send(at(j), "v", at(j+1), "v")
	}
	// Independent branches containing rounds, with a nested fork.
	m.Independent(
		func() {
			m.Par(func(send func(from, to Coord, dstReg Reg, v Value)) {
				for j := 0; j < 2500; j++ {
					send(at(j%700), at((j*13)%700), "a", float64(j))
				}
			})
		},
		func() {
			m.Independent(
				func() {
					m.Par(func(send func(from, to Coord, dstReg Reg, v Value)) {
						for j := 0; j < 2500; j++ {
							send(at(700+j%200), at(700+(j*7)%200), "b", float64(j))
						}
					})
				},
				func() { m.Send(at(900), "v", at(901), "v") },
			)
		},
	)
	// One more round so post-join clocks feed new messages.
	m.Par(func(send func(from, to Coord, dstReg Reg, v Value)) {
		for j := 0; j < 2500; j++ {
			send(at(j%1000), at((j*31)%1000), "v", float64(j))
		}
	})
}

// snapshotState captures everything observable: metrics, per-PE clocks and
// sorted register contents over the workload's region.
func snapshotState(m *Machine) string {
	out := fmt.Sprintf("%v touched=%d\n", m.Metrics(), m.TouchedPEs())
	for row := 0; row < 40; row++ {
		for col := 0; col < 40; col++ {
			c := Coord{row, col}
			d, x := m.Clock(c)
			if d == 0 && x == 0 && m.peLookup(c) == nil {
				continue
			}
			out += fmt.Sprintf("p(%d,%d) clk=%d/%d", row, col, d, x)
			for _, r := range m.Registers(c) {
				v, _ := m.Lookup(c, r)
				out += fmt.Sprintf(" %s=%v", r, v)
			}
			out += "\n"
		}
	}
	return out
}

// TestShardedMatchesSequential is the machine-level half of the tentpole's
// byte-identical guarantee: the same workload on 1, 2, 4 and 7 shards (with
// the fork threshold lowered so even small rounds shard) must yield
// identical metrics, clocks and registers.
func TestShardedMatchesSequential(t *testing.T) {
	base := New()
	batchWorkload(base, 42)
	want := snapshotState(base)
	for _, k := range []int{1, 2, 4, 7, 16} {
		m := New()
		m.SetShards(k)
		m.shardMin = 1
		batchWorkload(m, 42)
		if got := snapshotState(m); got != want {
			t.Fatalf("shards=%d diverged from sequential engine:\n got %.300s\nwant %.300s", k, got, want)
		}
	}
}

// TestShardedSurvivesReset checks the shard setting and results survive
// machine pooling: run, Reset, run again sharded.
func TestShardedSurvivesReset(t *testing.T) {
	m := New()
	m.SetShards(4)
	m.shardMin = 1
	batchWorkload(m, 7)
	m.Reset()
	if m.Shards() != 4 {
		t.Fatalf("Shards() = %d after Reset, want 4", m.Shards())
	}
	batchWorkload(m, 9)
	fresh := New()
	batchWorkload(fresh, 9)
	if got, want := snapshotState(m), snapshotState(fresh); got != want {
		t.Fatalf("recycled sharded machine diverged from fresh sequential machine")
	}
}

// TestShardedEventStream: messages are charged, and their events emitted,
// as they are issued, so the event stream must be identical for every
// shard count.
func TestShardedEventStream(t *testing.T) {
	record := func(k int) []trace.Event {
		var events []trace.Event
		m := New()
		m.SetSink(trace.SinkFunc(func(e *trace.Event) { events = append(events, *e) }))
		if k > 1 {
			m.SetShards(k)
			m.shardMin = 1
		}
		batchWorkload(m, 3)
		return events
	}
	want := record(1)
	for _, k := range []int{2, 4} {
		got := record(k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: event stream differs (len %d vs %d)", k, len(got), len(want))
		}
	}
}

// exchangeWorkload drives m through random vertex-disjoint exchange levels
// over random distinct wires, along one of two paths: "value" rounds that
// deliver registers, or a Wires kernel. The random draws do not depend on
// the path, so both see the same levels.
// With nested set, some levels run inside nested Independent branches.
func exchangeWorkload(m *Machine, path string, nested bool) {
	rng := rand.New(rand.NewSource(5))
	const side, wires = 12, 48
	// Negative coordinates too, so the fold's Euclidean modulo is exercised.
	at := func(i int) Coord { return Coord{i/side - 3, i%side - 5} }
	for i := 0; i < side*side; i++ {
		m.Set(at(i), "v", float64(i))
	}
	network := func() {
		cs := make([]Coord, wires)
		for i, p := range rng.Perm(side * side)[:wires] {
			cs[i] = at(p)
		}
		var w *Wires
		if path == "wires" {
			w = m.BindWires(cs)
		}
		for l := 0; l < 6; l++ {
			pairs := rng.Perm(wires)[:2*rng.Intn(wires/2+1)]
			switch path {
			case "wires":
				for k := 0; k < len(pairs); k += 2 {
					w.Exchange(pairs[k], pairs[k+1])
				}
			case "value":
				m.Par(func(send func(from, to Coord, dstReg Reg, v Value)) {
					for k := 0; k < len(pairs); k += 2 {
						send(cs[pairs[k]], cs[pairs[k+1]], "in", float64(k))
						send(cs[pairs[k+1]], cs[pairs[k]], "in", float64(k))
					}
				})
				for _, p := range pairs {
					m.Del(cs[p], "in")
				}
			}
		}
		if w != nil {
			w.Close()
		}
	}
	network()
	if nested {
		m.Independent(network, func() { m.Independent(network, network) })
	}
	network()
}

// checkCountMatchesSend: the Wires counting kernel must charge exactly like
// value rounds — energy, depth, distance, messages,
// per-PE clocks, touched PEs and link loads — with only the register
// traffic (and hence PeakMemory) skipped, under backend bk, with congestion
// tracking off and on, at top level and inside nested Independent branches,
// on the sequential and the sharded engine.
func checkCountMatchesSend(t *testing.T, bk Backend) {
	for _, cong := range []bool{false, true} {
		for _, nested := range []bool{false, true} {
			for _, k := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/cong=%v/nested=%v/shards=%d", bk, cong, nested, k), func(t *testing.T) {
					ms := map[string]*Machine{}
					for _, path := range []string{"value", "wires"} {
						m := New()
						m.SetBackend(bk)
						m.SetShards(k)
						m.shardMin = 1
						if cong {
							m.EnableCongestionTracking()
						}
						exchangeWorkload(m, path, nested)
						ms[path] = m
					}
					val, m := ms["value"], ms["wires"]
					want := val.Metrics()
					want.PeakMemory = 0
					got := m.Metrics()
					got.PeakMemory = 0
					if got != want {
						t.Fatalf("wires: metrics %v != value metrics %v", got, want)
					}
					if m.TouchedPEs() != val.TouchedPEs() {
						t.Fatalf("wires: touched %d != %d", m.TouchedPEs(), val.TouchedPEs())
					}
					if m.MaxCongestion() != val.MaxCongestion() || (cong && !reflect.DeepEqual(linkLoads(m), linkLoads(val))) {
						t.Fatalf("wires: link loads differ (peak %d vs %d)", m.MaxCongestion(), val.MaxCongestion())
					}
					for row := -3; row < 9; row++ {
						for col := -5; col < 7; col++ {
							c := Coord{row, col}
							dv, xv := val.Clock(c)
							if d, x := m.Clock(c); d != dv || x != xv {
								t.Fatalf("wires: clock at %v: %d/%d, want %d/%d", c, d, x, dv, xv)
							}
						}
					}
					if !bk.Finite() && ms["wires"].Metrics().PeakMemory != 1 {
						t.Fatalf("wires run materialized registers: peak %d", ms["wires"].Metrics().PeakMemory)
					}
				})
			}
		}
	}
}

// linkLoads collects the congestion tracker's nonzero link loads.
func linkLoads(m *Machine) map[fabric.Coord][4]int64 {
	loads := map[fabric.Coord][4]int64{}
	m.cong.Each(func(c fabric.Coord, load [4]int64) { loads[c] = load })
	return loads
}

func TestCountMatchesSend(t *testing.T) { checkCountMatchesSend(t, Ideal()) }

// TestCountMatchesSendFolded is checkCountMatchesSend on folded fabrics,
// where the Wires kernel charges between homes folded once at bind time.
func TestCountMatchesSendFolded(t *testing.T) {
	checkCountMatchesSend(t, Mesh(5, 3, 2))
	checkCountMatchesSend(t, Torus(4, 4, 3))
}

// TestShardedMemoryLimit: the sharded engine must surface the same first
// violation the sequential engine panics on (it finishes the round first, so
// only the error value is compared).
func TestShardedMemoryLimit(t *testing.T) {
	run := func(shards int) (err MemoryLimitError) {
		defer func() {
			if r := recover(); r != nil {
				err = r.(MemoryLimitError)
			}
		}()
		m := NewWithMemoryLimit(2)
		m.SetShards(shards)
		m.shardMin = 1
		m.Par(func(send func(from, to Coord, dstReg Reg, v Value)) {
			for i := 0; i < 100; i++ {
				send(Coord{1, 0}, Coord{0, i % 10}, Reg(fmt.Sprintf("r%d", i)), i)
			}
		})
		return
	}
	want := run(1)
	if want.Limit != 2 {
		t.Fatalf("sequential run did not violate the limit: %+v", want)
	}
	for _, k := range []int{2, 4} {
		if got := run(k); got != want {
			t.Fatalf("shards=%d: violation %+v, want %+v", k, got, want)
		}
	}
}

// TestRoundMisuse covers the round API's and the Wires kernel's contract
// panics.
func TestRoundMisuse(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	m := New()
	expectPanic("nested Par", func() {
		m.Par(func(func(from, to Coord, dstReg Reg, v Value)) {
			m.Par(func(func(from, to Coord, dstReg Reg, v Value)) {})
		})
	})
	m.Reset()
	var leaked func(from, to Coord, dstReg Reg, v Value)
	m.Par(func(send func(from, to Coord, dstReg Reg, v Value)) { leaked = send })
	expectPanic("send after its round", func() {
		leaked(Coord{0, 0}, Coord{0, 1}, "v", 1)
	})
	expectPanic("PE bound to two wires", func() {
		m.BindWires([]Coord{{0, 0}, {0, 1}, {0, 0}})
	})
}

// TestSharedSinkUnderShardParallelism is the -race coverage the sharding PR
// promises: several goroutines, each driving its own sharded machine, all
// stream into one Synchronized sink while delivery goroutines mutate PE
// state concurrently. Run with -race this catches any escape of shard-local
// state; the metrics must still match a sequential reference.
func TestSharedSinkUnderShardParallelism(t *testing.T) {
	var mu sync.Mutex
	var events int
	shared := trace.Synchronized(trace.SinkFunc(func(*trace.Event) {
		mu.Lock()
		events++
		mu.Unlock()
	}))
	ref := New()
	batchWorkload(ref, 11)
	want := ref.Metrics()

	var wg sync.WaitGroup
	got := make([]Metrics, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := New()
			m.SetShards(4)
			m.shardMin = 1
			m.SetSink(shared)
			batchWorkload(m, 11)
			got[w] = m.Metrics()
		}(w)
	}
	wg.Wait()
	for w, g := range got {
		if g != want {
			t.Fatalf("worker %d: metrics %v, want %v", w, g, want)
		}
	}
	if events != int(want.Messages)*4 {
		t.Fatalf("shared sink saw %d events, want %d", events, want.Messages*4)
	}
}
