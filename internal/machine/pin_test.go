package machine

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/trace"
)

// pinnedState hashes everything batchWorkload leaves observable — metrics,
// touched PEs, per-PE clocks, registers and link loads — together with the
// full trace event stream of a second, sink-attached run of the same
// workload. The sink-attached run must leave the same state as the
// sink-less one.
func pinnedState(t *testing.T, bk Backend, cong bool, shards int) (state, events uint64) {
	t.Helper()
	run := func(sink trace.Sink) string {
		m := New()
		m.SetBackend(bk)
		if shards > 1 {
			m.SetShards(shards)
			m.shardMin = 1
		}
		if cong {
			m.EnableCongestionTracking()
		}
		m.SetSink(sink)
		batchWorkload(m, 42)
		return fmt.Sprintf("%s links max=%d total=%d\n", snapshotState(m), m.MaxCongestion(), m.TotalLinkTraversals())
	}
	sinkless := run(nil)
	eh := fnv.New64a()
	traced := run(trace.SinkFunc(func(e *trace.Event) { fmt.Fprintf(eh, "%+v\n", *e) }))
	if traced != sinkless {
		t.Fatalf("attaching a sink changed the state")
	}
	sh := fnv.New64a()
	sh.Write([]byte(sinkless))
	return sh.Sum64(), eh.Sum64()
}

// TestEnginePinnedState pins the send engine's observable output to hashes
// recorded before the per-message charge and delivery were unified, for
// every backend kind, congestion off and on, on the sequential and the
// sharded engine. The sharded-vs-sequential tests compare two engines with
// each other; this test also fails when both drift the same way.
func TestEnginePinnedState(t *testing.T) {
	cases := []struct {
		backend       string
		cong          bool
		state, events uint64
	}{
		{"ideal", false, 0xf53f9775512489cc, 0x81d1a8034de534ab},
		{"ideal", true, 0xcc41a30a382ec143, 0x81d1a8034de534ab},
		{"mesh:5x3:2", false, 0x414086a40c9fbe2c, 0xe4369985e5d34c5c},
		{"mesh:5x3:2", true, 0x896bd5dda8afb85d, 0xe4369985e5d34c5c},
		{"torus:4x4:3", false, 0x2a9f3a00e33c135d, 0x2b4698dddb21a876},
		{"torus:4x4:3", true, 0xf96e632787fe4ae7, 0x2b4698dddb21a876},
	}
	for _, c := range cases {
		bk, err := ParseBackend(c.backend)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 4} {
			state, events := pinnedState(t, bk, c.cong, shards)
			if state != c.state || events != c.events {
				t.Errorf("%s cong=%v shards=%d: state %#x events %#x, want %#x %#x",
					c.backend, c.cong, shards, state, events, c.state, c.events)
			}
		}
	}
}

// TestWiresPinnedState pins the Wires kernel's output the same way: metrics,
// touched PEs, clocks and link loads of a nested exchange workload, under
// every backend kind with congestion tracking on.
func TestWiresPinnedState(t *testing.T) {
	want := map[string]uint64{
		"ideal":       0x660c9baf8b53bd95,
		"mesh:5x3:2":  0xfa557ec767a52b39,
		"torus:4x4:3": 0xb842cca27c660262,
	}
	for spec, w := range want {
		bk, err := ParseBackend(spec)
		if err != nil {
			t.Fatal(err)
		}
		m := New()
		m.SetBackend(bk)
		m.EnableCongestionTracking()
		exchangeWorkload(m, "wires", true)
		h := fnv.New64a()
		fmt.Fprintf(h, "%v touched=%d links max=%d total=%d\n", m.Metrics(), m.TouchedPEs(), m.MaxCongestion(), m.TotalLinkTraversals())
		for row := -3; row < 9; row++ {
			for col := -5; col < 7; col++ {
				d, x := m.Clock(Coord{row, col})
				fmt.Fprintf(h, "%d/%d ", d, x)
			}
		}
		if got := h.Sum64(); got != w {
			t.Errorf("%s: state %#x, want %#x", spec, got, w)
		}
	}
}

// TestMemoryLimitEventOrder: every send entry point charges a message —
// its sink event included — before delivering it, so a delivery that
// breaks the memory limit panics after its event has been emitted.
func TestMemoryLimitEventOrder(t *testing.T) {
	from, to := Coord{0, 0}, Coord{0, 1}
	for name, send := range map[string]func(m *Machine){
		"SendValue": func(m *Machine) { m.SendValue(from, to, "b", 2) },
		"Par": func(m *Machine) {
			m.Par(func(send func(from, to Coord, dstReg Reg, v Value)) { send(from, to, "b", 2) })
		},
		"SendBatch": func(m *Machine) { m.SendBatch(func(b *Batch) { b.Send(from, to, "b", 2) }) },
	} {
		m := NewWithMemoryLimit(1)
		events := 0
		m.SetSink(trace.SinkFunc(func(*trace.Event) { events++ }))
		m.Set(to, "a", 1)
		func() {
			defer func() {
				if _, ok := recover().(MemoryLimitError); !ok {
					t.Errorf("%s: delivery over the limit did not panic with MemoryLimitError", name)
				}
			}()
			send(m)
		}()
		if events != 1 {
			t.Errorf("%s: %d events before the memory-limit panic, want 1", name, events)
		}
	}
}
