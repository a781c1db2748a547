package core_test

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/order"
	"repro/internal/pram"
	"repro/internal/spmv"
	"repro/internal/trace"
)

// pinWorkloads are the small runs of the paper's concurrent read and write
// (SpMV on every track, connected components, triangle counting, the CRCW
// PRAM's read and write) and of Select's compaction. Each returns its
// answer as text; Select also reports the RNG state it leaves behind.
var pinWorkloads = []struct {
	name string
	run  func(m *machine.Machine) string
}{
	{"spmv/zorder", pinSpMV(grid.TrackZOrder)},
	{"spmv/hilbert", pinSpMV(grid.TrackHilbert)},
	{"spmv/rowmajor", pinSpMV(grid.TrackRowMajor)},
	{"spmv/pram", func(m *machine.Machine) string {
		a, x := pinMatrix()
		y, err := spmv.MultiplyPRAM(m, a, x)
		return fmt.Sprint(y, err)
	}},
	{"cc/powerlaw", func(m *machine.Machine) string {
		labels, rounds, err := graph.Components(m, graph.PowerLaw(24, rand.New(rand.NewSource(5))))
		return fmt.Sprint(labels, rounds, err)
	}},
	{"cc/disconnected", func(m *machine.Machine) string {
		g := graph.FromEdges(20, [][2]int{{9, 3}, {3, 17}, {17, 12}, {4, 1}, {1, 15}, {19, 6}, {6, 0}, {0, 11}, {11, 19}})
		labels, rounds, err := graph.Components(m, g)
		return fmt.Sprint(labels, rounds, err)
	}},
	{"triangles", func(m *machine.Machine) string {
		n, err := graph.Triangles(m, graph.PowerLaw(20, rand.New(rand.NewSource(7))))
		return fmt.Sprint(n, err)
	}},
	{"crcw/hillis-steele", pinPRAM(pram.HillisSteele{N: 16}, 16)},
	{"crcw/broadcast-write", pinPRAM(pram.BroadcastWrite{P: 12}, 0)},
	{"crcw/concurrent-read", pinPRAM(pram.ConcurrentRead{P: 12}, 1)},
	{"select/n64", pinSelect(64, []int{1, 20, 64}, 3)},
	{"select/n256", pinSelect(256, []int{1, 100, 129, 256}, 11)},
}

func pinMatrix() (spmv.Matrix, []float64) {
	rng := rand.New(rand.NewSource(9))
	a := spmv.Matrix{N: 12}
	for i := 0; i < 40; i++ {
		a.Entries = append(a.Entries, spmv.Entry{Row: rng.Intn(12), Col: rng.Intn(12), Val: float64(rng.Intn(9) - 4)})
	}
	x := make([]float64, 12)
	for i := range x {
		x[i] = float64(rng.Intn(7) - 3)
	}
	return a, x
}

func pinSpMV(kind grid.TrackKind) func(*machine.Machine) string {
	return func(m *machine.Machine) string {
		a, x := pinMatrix()
		y, err := spmv.MultiplyMapped(m, a, x, kind)
		return fmt.Sprint(y, err)
	}
}

func pinPRAM(prog pram.Program, cells int) func(*machine.Machine) string {
	return func(m *machine.Machine) string {
		init := make([]machine.Value, cells)
		for i := range init {
			init[i] = float64(i%5 + 1)
		}
		s := pram.New(m, prog, pram.CRCW, init)
		err := s.Run()
		states := make([]machine.Value, prog.Procs())
		for p := range states {
			states[p] = s.State(p)
		}
		return fmt.Sprint(s.Memory(), states, err)
	}
}

func pinSelect(n int, ks []int, seed int64) func(*machine.Machine) string {
	return func(m *machine.Machine) string {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]machine.Value, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(n / 2))
		}
		side := grid.Pow2Side(n)
		r := grid.Square(machine.Coord{}, side)
		grid.Place(m, grid.Slice(grid.RowMajor(r), 0, n), "v", vals, nil)
		out := ""
		for _, k := range ks {
			out += fmt.Sprint(core.Select(m, r, "v", k, order.Float64, rng), " ")
		}
		return out + fmt.Sprint("rng=", rng.Int63())
	}
}

// pinState runs one workload on a fresh machine and hashes what it leaves
// observable: the answer, the metrics, the touched-PE count, link loads and
// each PE's clock and live-register count. With events set, the machine
// carries a sink and the event stream, payloads included, is hashed too.
func pinState(w func(*machine.Machine) string, setup func(*machine.Machine), events io.Writer) string {
	m := machine.New()
	setup(m)
	if events != nil {
		m.SetSink(trace.SinkFunc(func(e *trace.Event) { fmt.Fprintf(events, "%+v\n", *e) }))
	}
	ans := w(m)
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\n%v touched=%d links max=%d total=%d\n", ans, m.Metrics(), m.TouchedPEs(), m.MaxCongestion(), m.TotalLinkTraversals())
	for row := 0; row < 64; row++ {
		for col := 0; col < 64; col++ {
			c := machine.Coord{Row: row, Col: col}
			d, x := m.Clock(c)
			fmt.Fprintf(h, "%d/%d/%d ", d, x, len(m.Registers(c)))
		}
	}
	return fmt.Sprintf("%#x", h.Sum64())
}

// TestKeyedPinnedState pins the observable output of every caller of the
// keyed sort–elect–scan pipeline and of Select's compaction to hashes
// recorded before those steps were written once in core: on the value
// path, on the counting path, on a traced machine (whose state must equal
// the untraced one's, and whose event stream is pinned too) and on a
// folded torus with congestion tracking.
func TestKeyedPinnedState(t *testing.T) {
	want := map[string][4]string{
		"spmv/zorder":          {"0x4be95737c6f0a7dd", "0x9b2b6dc949b7809a", "0x6df2c4fca746c3f6", "0xc0ad5c3783e02a60"},
		"spmv/hilbert":         {"0x68d5d324c88a1710", "0xba06cad65d92ad5f", "0xb90909aa57297c7e", "0xa62d8dc5c97ff40a"},
		"spmv/rowmajor":        {"0x125a0b520e3573dd", "0x6bcbc0d280d11a", "0x1fbc5603d0e65d46", "0x4679ceca61368b98"},
		"spmv/pram":            {"0x8fe9bbfa58d702b6", "0x5866aea4ad6bb5d7", "0x718f8e193fce19e9", "0x8b8c09dab05ffec1"},
		"cc/powerlaw":          {"0xdadc528be8473040", "0x6ed2540f1e6ab69b", "0x86fce858c177cfd5", "0x11a97b163c0f36f9"},
		"cc/disconnected":      {"0x1b90544d357f8afa", "0x886458b1f12c2c7f", "0x51b9baae41a6c1d3", "0x8966d38c424f8b2b"},
		"triangles":            {"0xc78d10925c89e675", "0x4656c8f66e054e66", "0x8d3050e3872c9c0e", "0xd97cabdd2cdabd89"},
		"crcw/hillis-steele":   {"0x6727e701f9774844", "0x77a90b867b7a4fd5", "0x7aeb3a07d03eba36", "0xc82d0f1e32e98e1d"},
		"crcw/broadcast-write": {"0x14833d3119fa38a1", "0x4d7711e70144c780", "0x2bfa4ac3a8c51e78", "0xfa8f523ea43589c7"},
		"crcw/concurrent-read": {"0x7c9f9792e739a69e", "0x6c3cce2fe06ca111", "0x1479e05d95449d5d", "0xfd2c73964a39d7ab"},
		"select/n64":           {"0x5b05d8864b26f463", "0x1f1adae84eaf1460", "0x7116159eda7a8f59", "0x9b4a3d00a69e4403"},
		"select/n256":          {"0x53b0cf399bcd7e86", "0x75a950c26e55adc1", "0xc0a43c5bc098c2f5", "0xf11a783856f84673"},
	}
	torus, err := machine.ParseBackend("torus:4x4:3")
	if err != nil {
		t.Fatal(err)
	}
	plain := func(*machine.Machine) {}
	for _, w := range pinWorkloads {
		value := pinState(w.run, plain, nil)
		counting := pinState(w.run, func(m *machine.Machine) { m.SetBatchSends(true) }, nil)
		eh := fnv.New64a()
		traced := pinState(w.run, plain, eh)
		if traced != value {
			t.Errorf("%s: attaching a sink changed the state", w.name)
		}
		folded := pinState(w.run, func(m *machine.Machine) {
			m.SetBackend(torus)
			m.EnableCongestionTracking()
		}, nil)
		got := [4]string{value, counting, fmt.Sprintf("%#x", eh.Sum64()), folded}
		if got != want[w.name] {
			t.Errorf("%s: value/counting/events/folded %q, want %q", w.name, got, want[w.name])
		}
	}
}
