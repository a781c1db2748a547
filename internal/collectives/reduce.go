package collectives

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/machine"
)

// Reduce combines the values in register reg of every PE of r with the
// associative, commutative operator op, leaving the result in register reg
// of r.Origin. It uses the reverse communication pattern of Broadcast
// (Corollary IV.2): O(hw + max(h,w) log max(h,w)) energy, O(log n) depth,
// O(h+w) distance. On a square subgrid this improves the energy of a
// logarithmic-depth reduce by a Theta(log n) factor over the binary-tree
// baseline (ReduceTrack).
func Reduce(m *machine.Machine, r grid.Rect, reg machine.Reg, op Op) {
	if r.H <= 0 || r.W <= 0 {
		panic(fmt.Sprintf("collectives: Reduce on empty region %v", r))
	}
	f := folder{m: m, reg: reg, op: op}
	pattern(r, false, f.recv)
	f.flush()
}

// ReducePattern calls send(from, to) for every message Reduce sends on the
// non-empty region r, in the order Reduce sends them (see BroadcastPattern).
func ReducePattern(r grid.Rect, send func(from, to machine.Coord)) {
	pattern(r, false, func(parent, child machine.Coord) { send(child, parent) })
}

// folder applies a reduce pattern on the value path. Each child sends its
// partial result in register reg to its parent, which folds it into its
// own: reg = op(reg, received). A run of messages to one parent folds into
// a host-side accumulator, and the parent's register is written once, when
// the next message goes elsewhere (or at flush), so before that parent
// sends on.
type folder struct {
	m      *machine.Machine
	reg    machine.Reg
	op     Op
	parent machine.Coord
	acc    machine.Value
	open   bool
}

func (f *folder) recv(parent, child machine.Coord) {
	if !f.open || parent != f.parent {
		f.flush()
		f.parent, f.acc, f.open = parent, f.m.Get(parent, f.reg), true
	}
	f.m.Send(child, f.reg, parent, "reduce.in")
	f.acc = f.op(f.acc, f.m.Get(parent, "reduce.in"))
}

// flush writes the open run's result to its parent.
func (f *folder) flush() {
	if f.open {
		f.m.Del(f.parent, "reduce.in")
		f.m.Set(f.parent, f.reg, f.acc)
		f.open = false
	}
}

// ReduceTrack reduces the values at all track positions to position 0 with a
// binary tree over track indices (the reverse of BroadcastTrack). Over the
// row-major track of a square grid this is the Theta(n log n)-energy
// logarithmic-depth baseline the paper improves on.
func ReduceTrack(m *machine.Machine, t grid.Track, reg machine.Reg, op Op) {
	ReduceTree(m, t, reg, op, 2)
}

// ReduceTree is ReduceTrack generalized to arity-way trees (the reverse of
// BroadcastTree): each of the arity chunks of [lo, hi) reduces recursively,
// then every non-first chunk head sends its partial result to lo, which
// folds them in chunk order. Arity 2 reproduces ReduceTrack's binary
// recursion exactly — same messages in the same order.
func ReduceTree(m *machine.Machine, t grid.Track, reg machine.Reg, op Op, arity int) {
	f := folder{m: m, reg: reg, op: op}
	treeEdges(t.Len(), arity, false, func(lo, head int) { f.recv(t.At(lo), t.At(head)) })
	f.flush()
}

// AllReduce combines the values of register reg across r with op and leaves
// the result in register reg of every PE: a Reduce followed by a Broadcast.
func AllReduce(m *machine.Machine, r grid.Rect, reg machine.Reg, op Op) {
	Reduce(m, r, reg, op)
	Broadcast(m, r, reg)
}
