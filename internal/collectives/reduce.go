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
	switch {
	case r.H <= 0 || r.W <= 0:
		panic(fmt.Sprintf("collectives: Reduce on empty region %v", r))
	case r.H == 1 && r.W == 1:
		return
	case r.H == 1 || r.W == 1:
		ReduceTrack(m, grid.RowMajor(r), reg, op)
	case r.H == r.W:
		reduce2D(m, r, reg, op)
	case r.H > r.W:
		blocks := (r.H + r.W - 1) / r.W
		corners := make([]machine.Coord, blocks)
		for b := 0; b < blocks; b++ {
			h := r.W
			if (b+1)*r.W > r.H {
				h = r.H - b*r.W
			}
			sub := grid.Rect{Origin: r.At(b*r.W, 0), H: h, W: r.W}
			if sub.IsSquare() {
				reduce2D(m, sub, reg, op)
			} else {
				Reduce(m, sub, reg, op)
			}
			corners[b] = sub.Origin
		}
		ReduceTrack(m, grid.Coords(corners...), reg, op)
	default: // r.W > r.H
		blocks := (r.W + r.H - 1) / r.H
		corners := make([]machine.Coord, blocks)
		for b := 0; b < blocks; b++ {
			w := r.H
			if (b+1)*r.H > r.W {
				w = r.W - b*r.H
			}
			sub := grid.Rect{Origin: r.At(0, b*r.H), H: r.H, W: w}
			if sub.IsSquare() {
				reduce2D(m, sub, reg, op)
			} else {
				Reduce(m, sub, reg, op)
			}
			corners[b] = sub.Origin
		}
		ReduceTrack(m, grid.Coords(corners...), reg, op)
	}
}

// reduce2D reduces a (near-)square region to its origin by reversing the
// recursive quadrant broadcast. Odd sides split into uneven halves.
func reduce2D(m *machine.Machine, r grid.Rect, reg machine.Reg, op Op) {
	quads, k := halfQuadrants(r)
	if k == 0 {
		return
	}
	for _, q := range quads[:k] {
		reduce2D(m, q, reg, op)
	}
	acc := m.Get(r.Origin, reg)
	for _, q := range quads[:k] {
		if q.Origin == r.Origin {
			continue
		}
		m.Send(q.Origin, reg, r.Origin, "reduce.in")
		acc = op(acc, m.Get(r.Origin, "reduce.in"))
	}
	m.Del(r.Origin, "reduce.in")
	m.Set(r.Origin, reg, acc)
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
	if arity < 2 {
		panic(fmt.Sprintf("collectives: ReduceTree arity %d < 2", arity))
	}
	var rec func(lo, hi int)
	rec = func(lo, hi int) {
		if hi-lo <= 1 {
			return
		}
		for i := 0; i < arity; i++ {
			clo := lo + i*(hi-lo)/arity
			chi := lo + (i+1)*(hi-lo)/arity
			if chi > clo {
				rec(clo, chi)
			}
		}
		for i := 1; i < arity; i++ {
			head := lo + i*(hi-lo)/arity
			prev := lo + (i-1)*(hi-lo)/arity
			if head == prev {
				continue // empty chunk (hi-lo < arity)
			}
			m.Send(t.At(head), reg, t.At(lo), "reduce.in")
			v := op(m.Get(t.At(lo), reg), m.Get(t.At(lo), "reduce.in"))
			m.Del(t.At(lo), "reduce.in")
			m.Set(t.At(lo), reg, v)
		}
	}
	rec(0, t.Len())
}

// AllReduce combines the values of register reg across r with op and leaves
// the result in register reg of every PE: a Reduce followed by a Broadcast.
func AllReduce(m *machine.Machine, r grid.Rect, reg machine.Reg, op Op) {
	Reduce(m, r, reg, op)
	Broadcast(m, r, reg)
}
