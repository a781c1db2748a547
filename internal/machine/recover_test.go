package machine_test

import (
	"testing"

	"repro/internal/collectives"
	"repro/internal/grid"
	"repro/internal/machine"
)

// TestResetAfterRoundPanic: a panic inside a Par callback leaves the round
// open. Sweep harnesses recover a failed point's panic, Reset the machine
// and return it to a shared pool, so Reset must close the round: after it,
// a Par round and a Broadcast (a collective built on Par rounds) must give
// the metrics of a fresh machine, on the sequential and the sharded engine.
func TestResetAfterRoundPanic(t *testing.T) {
	work := func(m *machine.Machine) machine.Metrics {
		m.Set(machine.Coord{}, "v", 1.0)
		m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
			send(machine.Coord{}, machine.Coord{Row: 2, Col: 3}, "w", 1.0)
			send(machine.Coord{}, machine.Coord{Row: 4, Col: 1}, "w", 2.0)
		})
		collectives.Broadcast(m, grid.Square(machine.Coord{}, 8), "v")
		return m.Metrics()
	}
	want := work(machine.New())
	for _, k := range []int{1, 2} {
		m := machine.New()
		m.SetShards(k)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("shards=%d: the callback's panic did not propagate", k)
				}
			}()
			m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
				send(machine.Coord{}, machine.Coord{Col: 1}, "v", 1.0)
				panic("point failed")
			})
		}()
		m.Reset()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("shards=%d: after Reset: %v", k, r)
				}
			}()
			if got := work(m); got != want {
				t.Errorf("shards=%d: after Reset got %v, want %v", k, got, want)
			}
		}()
	}
}
