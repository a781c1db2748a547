package machine_test

import (
	"testing"

	"repro/internal/collectives"
	"repro/internal/grid"
	"repro/internal/machine"
)

// TestResetAfterRoundPanic: a panic inside a Par callback leaves the round
// open, a panic inside a counting-only collective (here a Scan whose op
// fails) leaves the machine's Wires kernel open, and a panic inside an
// Independent branch leaves the fork's journals and the finished branches'
// end clocks behind. Sweep harnesses recover a failed point's panic, Reset
// the machine and return it to a shared pool, so Reset must close all
// three: after it, a Par round, a fork, a Broadcast and a counting Scan
// must give the metrics of a fresh machine, on the sequential and the
// sharded engine.
func TestResetAfterRoundPanic(t *testing.T) {
	scanRegion := grid.Square(machine.Coord{Row: 10}, 4)
	placeScan := func(m *machine.Machine) {
		for i := 0; i < scanRegion.Size(); i++ {
			m.Set(grid.ZOrder(scanRegion).At(i), "s", float64(i))
		}
	}
	work := func(m *machine.Machine) machine.Metrics {
		m.Set(machine.Coord{}, "v", 1.0)
		m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
			send(machine.Coord{}, machine.Coord{Row: 2, Col: 3}, "w", 1.0)
			send(machine.Coord{}, machine.Coord{Row: 4, Col: 1}, "w", 2.0)
		})
		m.Independent(
			func() { m.Send(machine.Coord{Row: 2, Col: 3}, "w", machine.Coord{Row: 2, Col: 5}, "x") },
			func() { m.Send(machine.Coord{Row: 4, Col: 1}, "w", machine.Coord{Row: 2, Col: 5}, "y") },
		)
		collectives.Broadcast(m, grid.Square(machine.Coord{}, 8), "v")
		placeScan(m)
		collectives.Scan(m, scanRegion, "s", collectives.Add, 0.0)
		return m.Metrics()
	}
	fresh := func(shards int) *machine.Machine {
		m := machine.New()
		m.SetShards(shards)
		m.SetBatchSends(true)
		return m
	}
	want := work(fresh(1))
	failures := map[string]func(m *machine.Machine){
		"Par callback": func(m *machine.Machine) {
			m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
				send(machine.Coord{}, machine.Coord{Col: 1}, "v", 1.0)
				panic("point failed")
			})
		},
		"Independent branch": func(m *machine.Machine) {
			m.Set(machine.Coord{}, "v", 1.0)
			m.Independent(
				func() { m.Send(machine.Coord{}, "v", machine.Coord{Col: 3}, "v") },
				func() { panic("point failed") },
			)
		},
		"counting Scan op": func(m *machine.Machine) {
			placeScan(m)
			collectives.Scan(m, scanRegion, "s", func(a, b machine.Value) machine.Value { panic("point failed") }, 0.0)
		},
	}
	for name, fail := range failures {
		for _, k := range []int{1, 2} {
			m := fresh(k)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s, shards=%d: the panic did not propagate", name, k)
					}
				}()
				fail(m)
			}()
			m.Reset()
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s, shards=%d: after Reset: %v", name, k, r)
					}
				}()
				if got := work(m); got != want {
					t.Errorf("%s, shards=%d: after Reset got %v, want %v", name, k, got, want)
				}
			}()
		}
	}
}
