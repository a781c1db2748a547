package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/collectives"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/trace"
)

// keyedFixture holds a machine whose 2x2 region at the origin carries one
// record per PE along its Z-order track, and the messages it has sent.
type keyedFixture struct {
	m    *machine.Machine
	k    *Keyed
	msgs []string
}

// padKey is the key of a pad record (-1): pads sort last.
func padKey(v machine.Value) int64 {
	if x := v.(int64); x >= 0 {
		return x
	}
	return 1 << 60
}

func newKeyedFixture(recs ...int64) *keyedFixture {
	f := &keyedFixture{m: machine.New()}
	f.k = NewKeyed(f.m, grid.Square(machine.Coord{}, 2), grid.TrackZOrder, "rec")
	for i, r := range recs {
		f.m.Set(f.k.t.At(i), "rec", r)
	}
	f.m.SetSink(trace.SinkFunc(func(e *trace.Event) {
		f.msgs = append(f.msgs, fmt.Sprintf("%s>%s %v",
			f.name(machine.Coord{Row: e.From.Row, Col: e.From.Col}),
			f.name(machine.Coord{Row: e.To.Row, Col: e.To.Col}), e.Value))
	}))
	return f
}

// name is "p<i>" for track position i, the coordinate otherwise.
func (f *keyedFixture) name(c machine.Coord) string {
	for i := 0; i < f.k.t.Len(); i++ {
		if f.k.t.At(i) == c {
			return fmt.Sprintf("p%d", i)
		}
	}
	return fmt.Sprintf("(%d,%d)", c.Row, c.Col)
}

// regs lists every register of the given PEs as "pe: name=value ...".
func (f *keyedFixture) regs(cs ...machine.Coord) []string {
	var out []string
	for _, c := range cs {
		s := f.name(c) + ":"
		for _, r := range f.m.Registers(c) {
			v, _ := f.m.Lookup(c, r)
			s += fmt.Sprintf(" %s=%v", r, v)
		}
		out = append(out, s)
	}
	return out
}

func (f *keyedFixture) track() []machine.Coord {
	cs := make([]machine.Coord, f.k.t.Len())
	for i := range cs {
		cs[i] = f.k.t.At(i)
	}
	return cs
}

func check(t *testing.T, what string, got, want []string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\n got %q\nwant %q", what, got, want)
	}
}

// TestKeyedElectHeads: each position sends its key to its successor, and
// a position leads iff its key differs from its predecessor's — the first
// position always, a repeated key never, the first pad once.
func TestKeyedElectHeads(t *testing.T) {
	f := newKeyedFixture(5, 5, -1, -1)
	f.k.ElectHeads(padKey)
	check(t, "messages", f.msgs, []string{"p0>p1 5", "p1>p2 5", "p2>p3 1152921504606846976"})
	check(t, "registers", f.regs(f.track()...), []string{
		"p0: keyed.head=true rec=5",
		"p1: keyed.head=false rec=5",
		"p2: keyed.head=true rec=-1",
		"p3: keyed.head=false rec=-1",
	})
}

// TestKeyedFetch: only leaders whose record names a cell request it (the
// request carries the position), the cell replies and drops the request,
// the other positions take the identity, and a segmented First-scan
// spreads each leader's value.
func TestKeyedFetch(t *testing.T) {
	cell := machine.Coord{Row: 0, Col: 5}
	f := newKeyedFixture(2, 2, 3, -1) // key 3 and the pad name no cell
	f.m.Set(cell, "x", 42.0)
	f.k.ElectHeads(padKey)
	f.msgs = nil
	f.k.Fetch(func(v machine.Value) (machine.Coord, bool) { return cell, v.(int64) == 2 }, "x", -1.0)

	// The scan after the two fetch rounds, run alone on the same heads
	// and filled values.
	ref := newKeyedFixture(2, 2, 3, -1)
	for i, v := range []float64{42, -1, -1, -1} {
		ref.m.Set(ref.k.t.At(i), KeyedVal, v)
		ref.m.Set(ref.k.t.At(i), KeyedHead, i != 1)
	}
	collectives.SegmentedScan(ref.m, ref.k.r, KeyedVal, KeyedHead, collectives.First, -1.0)
	check(t, "messages", f.msgs, append([]string{"p0>(0,5) 0", "(0,5)>p0 42"}, ref.msgs...))
	check(t, "registers", f.regs(append(f.track(), cell)...), []string{
		"p0: keyed.head=true keyed.val=42 rec=2",
		"p1: keyed.head=false keyed.val=42 rec=2",
		"p2: keyed.head=true keyed.val=-1 rec=3",
		"p3: keyed.head=true keyed.val=-1 rec=-1",
		"(0,5): x=42",
	})
}

// TestKeyedDeliverLast: every position learns its successor's head flag,
// and the last position of each segment — a one-element segment's only
// position, and the final position — delivers its value; the successor
// flags are gone afterwards, the heads and values stay.
func TestKeyedDeliverLast(t *testing.T) {
	f := newKeyedFixture(1, 2, 2, 3)
	f.k.ElectHeads(padKey)
	for i, v := range []float64{10, 20, 21, 30} {
		f.m.Set(f.k.t.At(i), KeyedVal, v)
	}
	f.msgs = nil
	out := func(v machine.Value) (machine.Coord, bool) {
		return machine.Coord{Row: 5, Col: int(v.(int64))}, true
	}
	f.k.DeliverLast(out, "out")
	check(t, "messages", f.msgs, []string{
		"p1>p0 true", "p2>p1 false", "p3>p2 true",
		"p0>(5,1) 10", "p2>(5,2) 21", "p3>(5,3) 30",
	})
	check(t, "registers", f.regs(append(f.track(), machine.Coord{Row: 5, Col: 1}, machine.Coord{Row: 5, Col: 2}, machine.Coord{Row: 5, Col: 3})...), []string{
		"p0: keyed.head=true keyed.val=10 rec=1",
		"p1: keyed.head=true keyed.val=20 rec=2",
		"p2: keyed.head=false keyed.val=21 rec=2",
		"p3: keyed.head=true keyed.val=30 rec=3",
		"(5,1): out=10",
		"(5,2): out=21",
		"(5,3): out=30",
	})
}

// TestCompaction: markScan asks for each position's mark once, in track
// order, and compact sends exactly the marked elements to their prefix
// slots, clears the prefix counts and pads the rest of the destination.
func TestCompaction(t *testing.T) {
	for _, tc := range []struct {
		name   string
		marked []bool
		msgs   []string
		slots  []string
	}{
		{"none", []bool{false, false, false, false}, nil, []string{
			"(0,3): out={<nil> 1}", "(0,4): out={<nil> 1}", "(1,3): out={<nil> 1}", "(1,4): out={<nil> 1}",
		}},
		{"one", []bool{false, false, true, false}, []string{"p2>(0,3) {12 0}"}, []string{
			"(0,3): out={12 0}", "(0,4): out={<nil> 1}", "(1,3): out={<nil> 1}", "(1,4): out={<nil> 1}",
		}},
		{"all", []bool{true, true, true, true}, []string{"p0>(0,3) {10 0}", "p1>(0,4) {11 0}", "p2>(1,3) {12 0}", "p3>(1,4) {13 0}"}, []string{
			"(0,3): out={10 0}", "(0,4): out={11 0}", "(1,3): out={12 0}", "(1,4): out={13 0}",
		}},
	} {
		f := newKeyedFixture()
		r, tr := f.k.r, f.k.t
		for i := 0; i < tr.Len(); i++ {
			f.m.Set(tr.At(i), "v", float64(10+i))
		}
		var calls []int
		count := markScan(f.m, r, tr, func(i int) bool {
			calls = append(calls, i)
			return tc.marked[i]
		})
		if !reflect.DeepEqual(calls, []int{0, 1, 2, 3}) {
			t.Errorf("%s: mark called for %v, want each position once in order", tc.name, calls)
		}
		want := 0
		for _, b := range tc.marked {
			if b {
				want++
			}
		}
		if count != want {
			t.Errorf("%s: markScan counted %d, want %d", tc.name, count, want)
		}
		dst := grid.RowMajor(r.RightOf(2, 2))
		f.msgs = nil
		compact(f.m, tr, "v", dst, "out", count, dst.Len())
		check(t, tc.name+" messages", f.msgs, tc.msgs)
		check(t, tc.name+" sources", f.regs(f.track()...), []string{"p0: v=10", "p1: v=11", "p2: v=12", "p3: v=13"})
		check(t, tc.name+" slots", f.regs(dst.At(0), dst.At(1), dst.At(2), dst.At(3)), tc.slots)
	}
}
