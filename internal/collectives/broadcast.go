package collectives

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/machine"
)

// Broadcast distributes the value in register reg of r.Origin to register
// reg of every PE in r, without multicasting (every transmission is a
// point-to-point message). It implements Section IV-A:
//
//   - on a square w x w region, recurse on quadrants: the origin sends the
//     value to the top-left corners of the other three quadrants, then each
//     quadrant broadcasts recursively (O(w^2) energy);
//   - on an h x 1 column (or 1 x w row), use a binary broadcast tree
//     (O(h log h) energy);
//   - on a general h x w region with h >= w, first run the 1-D broadcast
//     down the first column hitting the top-left corner of each w x w
//     block, then a 2-D broadcast inside each block (and symmetrically for
//     w > h).
//
// Total: O(hw + max(h,w) log max(h,w)) energy, O(log n) depth, O(h+w)
// distance (Lemma IV.1).
func Broadcast(m *machine.Machine, r grid.Rect, reg machine.Reg) {
	switch {
	case r.H <= 0 || r.W <= 0:
		panic(fmt.Sprintf("collectives: Broadcast on empty region %v", r))
	case r.H == 1 && r.W == 1:
		return
	case r.H == 1 || r.W == 1:
		BroadcastTrack(m, grid.RowMajor(r), reg)
	case r.H == r.W:
		broadcast2D(m, r, reg)
	case r.H > r.W:
		// 1-D broadcast down the first column, restricted to block corners.
		blocks := (r.H + r.W - 1) / r.W
		corners := make([]machine.Coord, blocks)
		for b := range corners {
			corners[b] = r.At(b*r.W, 0)
		}
		BroadcastTrack(m, grid.Coords(corners...), reg)
		for b := 0; b < blocks; b++ {
			h := r.W
			if (b+1)*r.W > r.H {
				h = r.H - b*r.W
			}
			sub := grid.Rect{Origin: r.At(b*r.W, 0), H: h, W: r.W}
			if sub.IsSquare() {
				broadcast2D(m, sub, reg)
			} else {
				Broadcast(m, sub, reg)
			}
		}
	default: // r.W > r.H: symmetric, blocks along the first row.
		blocks := (r.W + r.H - 1) / r.H
		corners := make([]machine.Coord, blocks)
		for b := range corners {
			corners[b] = r.At(0, b*r.H)
		}
		BroadcastTrack(m, grid.Coords(corners...), reg)
		for b := 0; b < blocks; b++ {
			w := r.H
			if (b+1)*r.H > r.W {
				w = r.W - b*r.H
			}
			sub := grid.Rect{Origin: r.At(0, b*r.H), H: r.H, W: w}
			if sub.IsSquare() {
				broadcast2D(m, sub, reg)
			} else {
				Broadcast(m, sub, reg)
			}
		}
	}
}

// broadcast2D is the recursive quadrant broadcast on a (near-)square
// region: the origin sends the value to the top-left corners of the other
// quadrants, then each quadrant recurses. Odd sides split into uneven
// halves. Energy recurrence E(w) = 3w/2 + O(1) + 4E(w/2+1) = O(w^2).
//
// The up-to-three corner sends of one recursion level are mutually
// independent, so they go out as one batched round (metrics and trace
// stream are identical to issuing them as singleton Sends — sends never
// advance the sender's clock — but the round is eligible for sharding).
func broadcast2D(m *machine.Machine, r grid.Rect, reg machine.Reg) {
	quads, k := halfQuadrants(r)
	v := m.Get(r.Origin, reg)
	m.SendBatch(func(b *machine.Batch) {
		for _, q := range quads[:k] {
			if q.Origin != r.Origin {
				b.Send(r.Origin, q.Origin, reg, v)
			}
		}
	})
	for _, q := range quads[:k] {
		broadcast2D(m, q, reg)
	}
}

// halfQuadrants splits r into up to four quadrants by halving each side
// (rounding up), omitting empty ones: the quadrants are the first k
// entries. A 1x1 region yields none.
func halfQuadrants(r grid.Rect) (quads [4]grid.Rect, k int) {
	if r.H == 1 && r.W == 1 {
		return quads, 0
	}
	h1, w1 := (r.H+1)/2, (r.W+1)/2
	for _, part := range [4][4]int{
		{0, 0, h1, w1},
		{0, w1, h1, r.W - w1},
		{h1, 0, r.H - h1, w1},
		{h1, w1, r.H - h1, r.W - w1},
	} {
		if part[2] > 0 && part[3] > 0 {
			quads[k] = grid.Rect{Origin: r.At(part[0], part[1]), H: part[2], W: part[3]}
			k++
		}
	}
	return quads, k
}

// BroadcastTrack broadcasts the value at track position 0 to every position
// of the track using a binary tree over track indices: position lo sends to
// position mid, then both halves recurse. Over an h x 1 column this is the
// paper's 1-D broadcast with O(h log h) energy and O(log h) depth; over the
// row-major track of a square grid it is the naive binary-tree broadcast
// baseline with Theta(n log n) energy (Section IV-C).
func BroadcastTrack(m *machine.Machine, t grid.Track, reg machine.Reg) {
	BroadcastTree(m, t, reg, 2)
}

// BroadcastTree is BroadcastTrack generalized to arity-way trees: the range
// [lo, hi) splits into arity equal chunks (boundaries lo + i*(hi-lo)/arity),
// lo sends to the head of every non-first chunk, and each chunk recurses.
// Arity 2 reproduces BroadcastTrack's binary recursion exactly — same
// messages in the same order. Higher arities trade depth (log_k levels)
// against energy (longer average hop on index-contiguous tracks); the tree
// arity is a mapping knob the tuner searches (internal/tuner).
func BroadcastTree(m *machine.Machine, t grid.Track, reg machine.Reg, arity int) {
	if arity < 2 {
		panic(fmt.Sprintf("collectives: BroadcastTree arity %d < 2", arity))
	}
	var rec func(lo, hi int)
	rec = func(lo, hi int) {
		if hi-lo <= 1 {
			return
		}
		for i := 1; i < arity; i++ {
			head := lo + i*(hi-lo)/arity
			prev := lo + (i-1)*(hi-lo)/arity
			if head == prev || head == hi {
				continue // empty chunk (hi-lo < arity)
			}
			m.Send(t.At(lo), reg, t.At(head), reg)
		}
		for i := 0; i < arity; i++ {
			clo := lo + i*(hi-lo)/arity
			chi := lo + (i+1)*(hi-lo)/arity
			if chi > clo {
				rec(clo, chi)
			}
		}
	}
	rec(0, t.Len())
}

// BroadcastChain broadcasts the value at track position 0 along the track as
// a sequential relay chain: O(track length) energy on a Z-order or snake
// track, but Theta(n) depth. It is the "zero parallelism" extreme of the
// depth/energy trade-off.
func BroadcastChain(m *machine.Machine, t grid.Track, reg machine.Reg) {
	for i := 1; i < t.Len(); i++ {
		m.Send(t.At(i-1), reg, t.At(i), reg)
	}
}
