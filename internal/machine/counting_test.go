package machine_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/collectives"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/machine"
)

// countingForm is one collective with a counting form: run places fresh
// inputs on r and calls the collective, returning what it returns.
type countingForm struct {
	name    string
	regions []grid.Rect
	run     func(m *machine.Machine, r grid.Rect) machine.Value
}

// tree is an associative operator that records its association order, so a
// counting form that regroups or reorders op's applications leaves a
// different string than its value path.
func tree(a, b machine.Value) machine.Value { return "(" + a.(string) + " " + b.(string) + ")" }

// place stores fresh inputs along t: "a<i>" in v, and a segment head in h at
// every third position.
func place(m *machine.Machine, t grid.Track) {
	for i := 0; i < t.Len(); i++ {
		m.Set(t.At(i), "v", fmt.Sprintf("a%d", i))
		m.Set(t.At(i), "h", i%3 == 1)
	}
}

func rects(origin machine.Coord, shapes ...[2]int) []grid.Rect {
	rs := make([]grid.Rect, len(shapes))
	for i, s := range shapes {
		rs[i] = grid.Rect{Origin: origin, H: s[0], W: s[1]}
	}
	return rs
}

// Negative origins exercise the folds' Euclidean modulo.
var (
	squares = rects(machine.Coord{Row: -3, Col: -5}, [2]int{1, 1}, [2]int{2, 2}, [2]int{4, 4}, [2]int{8, 8})
	tracks  = rects(machine.Coord{Row: -3, Col: -5}, [2]int{1, 1}, [2]int{1, 8}, [2]int{8, 1}, [2]int{4, 4}, [2]int{2, 8}, [2]int{8, 2})
	// 1x1, 1-D, square, odd square, and h > w and w > h with partial blocks.
	boxes = rects(machine.Coord{Row: -3, Col: -5}, [2]int{1, 1}, [2]int{1, 7}, [2]int{6, 1}, [2]int{4, 4}, [2]int{5, 5}, [2]int{7, 3}, [2]int{3, 8})
)

var countingForms = []countingForm{
	{"Scan", squares, func(m *machine.Machine, r grid.Rect) machine.Value {
		place(m, grid.ZOrder(r))
		return collectives.Scan(m, r, "v", tree, "id")
	}},
	{"ScanTrack", tracks, func(m *machine.Machine, r grid.Rect) machine.Value {
		place(m, grid.RowMajor(r))
		return collectives.ScanTrack(m, grid.RowMajor(r), "v", tree, "id")
	}},
	{"SegmentedScan", squares, func(m *machine.Machine, r grid.Rect) machine.Value {
		place(m, grid.ZOrder(r))
		collectives.SegmentedScan(m, r, "v", "h", tree, "id")
		return nil
	}},
	{"SegmentedScanTrack", tracks, func(m *machine.Machine, r grid.Rect) machine.Value {
		place(m, grid.RowMajor(r))
		collectives.SegmentedScanTrack(m, grid.RowMajor(r), "v", "h", tree, "id")
		return nil
	}},
	// The predecessor count of the selection (core.countBelow): a value
	// Broadcast and Reduce against the two patterns charged on a kernel
	// bound to the region, with the count kept host-side. The broadcast
	// value arrives from outside the region first.
	{"BroadcastReducePattern", boxes, func(m *machine.Machine, r grid.Rect) machine.Value {
		from := r.Origin.Add(-1, 2)
		m.Set(from, "x", 5)
		t := grid.RowMajor(r)
		below := func(i int) bool { return (i*7)%t.Len() < 5 }
		if !m.CountingOnly() {
			m.Send(from, "x", r.Origin, "x")
			collectives.Broadcast(m, r, "x")
			for i := 0; i < t.Len(); i++ {
				m.Set(t.At(i), "cnt", 0)
				if below(i) {
					m.Set(t.At(i), "cnt", 1)
				}
			}
			collectives.Reduce(m, r, "cnt", func(a, b machine.Value) machine.Value { return a.(int) + b.(int) })
			cnt := m.Get(r.Origin, "cnt")
			for i := 0; i < t.Len(); i++ {
				m.Del(t.At(i), "cnt")
				m.Del(t.At(i), "x")
			}
			return cnt
		}
		cs := make([]machine.Coord, t.Len()+1)
		for i := range cs[1:] {
			cs[i+1] = t.At(i)
		}
		cs[0] = from
		wire := func(c machine.Coord) int { return 1 + (c.Row-r.Origin.Row)*r.W + c.Col - r.Origin.Col }
		w := m.BindWires(cs)
		send := func(from, to machine.Coord) { w.Send(wire(from), wire(to)) }
		w.Send(0, 1)
		collectives.BroadcastPattern(r, send)
		collectives.ReducePattern(r, send)
		w.Close()
		cnt := 0
		for i := 0; i < t.Len(); i++ {
			if below(i) {
				cnt++
			}
		}
		return cnt
	}},
}

// countingState is everything a run leaves observable: the returned values,
// metrics, touched PEs, congestion, and each PE's clock and registers in a
// window around the region.
type countingState struct {
	ret     []machine.Value
	met     machine.Metrics
	touched int
	peak    int64
	links   map[fabric.Coord][4]int64
	cells   []string
}

func runCountingForm(f countingForm, r grid.Rect, bk machine.Backend, cong, nested, counting bool, shards int) countingState {
	m := machine.New()
	m.SetBackend(bk)
	m.SetShards(shards)
	machine.SetShardMin(m, 1)
	m.SetBatchSends(counting)
	if cong {
		m.EnableCongestionTracking()
	}
	var s countingState
	run := func() { s.ret = append(s.ret, f.run(m, r)) }
	run()
	if nested {
		m.Independent(run, func() { m.Independent(run, run) })
		run()
	}
	s.met, s.touched, s.peak = m.Metrics(), m.TouchedPEs(), m.MaxCongestion()
	if cong {
		s.links = machine.LinkLoads(m)
	}
	for row := r.Origin.Row - 2; row < r.Origin.Row+r.H+2; row++ {
		for col := r.Origin.Col - 2; col < r.Origin.Col+r.W+3; col++ {
			c := machine.Coord{Row: row, Col: col}
			d, x := m.Clock(c)
			cell := fmt.Sprintf("%v %d/%d", c, d, x)
			for _, reg := range m.Registers(c) {
				v, _ := m.Lookup(c, reg)
				cell += fmt.Sprintf(" %s=%v", reg, v)
			}
			s.cells = append(s.cells, cell)
		}
	}
	return s
}

// checkCountingForms: every counting form must leave what its value path
// leaves — metrics (PeakMemory at most the value path's), return values,
// per-PE clocks, touched PEs, MaxCongestion, link loads and every live
// register — under backend bk, with congestion tracking off and on, at top
// level and inside nested Independent branches, on 1 and 4 shards.
func checkCountingForms(t *testing.T, bk machine.Backend) {
	for _, f := range countingForms {
		for _, r := range f.regions {
			for _, cong := range []bool{false, true} {
				for _, nested := range []bool{false, true} {
					for _, k := range []int{1, 4} {
						name := fmt.Sprintf("%s/%s/%dx%d/cong=%v/nested=%v/shards=%d", bk, f.name, r.H, r.W, cong, nested, k)
						want := runCountingForm(f, r, bk, cong, nested, false, k)
						got := runCountingForm(f, r, bk, cong, nested, true, k)
						if got.met.PeakMemory > want.met.PeakMemory {
							t.Errorf("%s: counting PeakMemory %d above the value path's %d", name, got.met.PeakMemory, want.met.PeakMemory)
						}
						got.met.PeakMemory = want.met.PeakMemory
						if got.met != want.met || got.touched != want.touched || got.peak != want.peak {
							t.Errorf("%s: counting %v touched=%d peak=%d, value %v touched=%d peak=%d",
								name, got.met, got.touched, got.peak, want.met, want.touched, want.peak)
						}
						if !reflect.DeepEqual(got.ret, want.ret) {
							t.Errorf("%s: counting returned %v, value %v", name, got.ret, want.ret)
						}
						if !reflect.DeepEqual(got.links, want.links) {
							t.Errorf("%s: link loads differ", name)
						}
						if g, w := strings.Join(got.cells, "\n"), strings.Join(want.cells, "\n"); g != w {
							t.Errorf("%s: PE state differs:\ncounting:\n%s\nvalue:\n%s", name, g, w)
						}
					}
				}
			}
		}
	}
}

// TestCountingFormsMatchValue runs checkCountingForms under Ideal.
func TestCountingFormsMatchValue(t *testing.T) { checkCountingForms(t, machine.Ideal()) }

// TestCountingFormsMatchValueFolded runs checkCountingForms on folded
// fabrics, where the kernel charges between homes folded once at bind time.
func TestCountingFormsMatchValueFolded(t *testing.T) {
	checkCountingForms(t, machine.Mesh(5, 3, 2))
	checkCountingForms(t, machine.Torus(4, 4, 3))
}
