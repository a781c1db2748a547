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
	if r.H <= 0 || r.W <= 0 {
		panic(fmt.Sprintf("collectives: Broadcast on empty region %v", r))
	}
	pattern(r, true, func(parent, child machine.Coord) { m.Send(parent, reg, child, reg) })
}

// BroadcastPattern calls send(from, to) for every message Broadcast sends on
// the non-empty region r, in the order Broadcast sends them. A caller that
// keeps the broadcast value host-side charges the pattern on a
// machine.Wires kernel bound to r's PEs: Broadcast sends the messages one at
// a time, so the kernel's one-way sends charge exactly what it does.
func BroadcastPattern(r grid.Rect, send func(from, to machine.Coord)) {
	pattern(r, true, send)
}

// pattern walks the message tree Broadcast (down) and Reduce (!down) share
// on r, calling edge(parent, child) once per message in sending order: a
// broadcast sends parent->child, a reduce child->parent.
//
//   - On an h x 1 column or a 1 x w row it is the binary tree over the
//     row-major track (BroadcastTrack, ReduceTrack).
//   - On a square it is the recursive quadrant tree (quadTree). Odd sides
//     split into uneven halves, so the energy recurrence is
//     E(w) = 3w/2 + O(1) + 4E(w/2+1) = O(w^2).
//   - On a general h x w region it cuts the longer side into blocks of side
//     min(h, w), the last one partial, joins the block corners by the 1-D
//     tree and recurses into every block. A broadcast reaches the corners
//     first, a reduce leaves them last.
func pattern(r grid.Rect, down bool, edge func(parent, child machine.Coord)) {
	switch {
	case r.H == 1 || r.W == 1:
		t := grid.RowMajor(r)
		treeEdges(t.Len(), 2, down, func(lo, head int) { edge(t.At(lo), t.At(head)) })
	case r.H == r.W:
		quadTree(r, down, edge)
	default:
		side := min(r.H, r.W)
		blocks := (max(r.H, r.W) + side - 1) / side
		block := func(b int) grid.Rect {
			if r.H > r.W {
				return grid.Rect{Origin: r.At(b*side, 0), H: min(side, r.H-b*side), W: r.W}
			}
			return grid.Rect{Origin: r.At(0, b*side), H: r.H, W: min(side, r.W-b*side)}
		}
		corners := func(lo, head int) { edge(block(lo).Origin, block(head).Origin) }
		if down {
			treeEdges(blocks, 2, true, corners)
		}
		for b := 0; b < blocks; b++ {
			pattern(block(b), down, edge)
		}
		if !down {
			treeEdges(blocks, 2, false, corners)
		}
	}
}

// quadTree walks the quadrant tree of a (near-)square region: r's origin
// is the parent of the origins of its other quadrants, and every quadrant,
// square or not, recurses the same way.
func quadTree(r grid.Rect, down bool, edge func(parent, child machine.Coord)) {
	quads, k := halfQuadrants(r)
	edges := func() {
		for _, q := range quads[:k] {
			if q.Origin != r.Origin {
				edge(r.Origin, q.Origin)
			}
		}
	}
	if down {
		edges()
	}
	for _, q := range quads[:k] {
		quadTree(q, down, edge)
	}
	if !down {
		edges()
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
	treeEdges(t.Len(), arity, true, func(lo, head int) { m.Send(t.At(lo), reg, t.At(head), reg) })
}

// treeEdges walks the arity-way tree over track indices [0, n) that
// BroadcastTree and ReduceTree share: the range [lo, hi) splits into arity
// equal chunks (boundaries lo + i*(hi-lo)/arity), lo is the parent of the
// head of every non-empty later chunk, and each chunk recurses. edge(lo,
// head) is called once per tree edge, before the chunks' edges when down
// (broadcast order) and after them otherwise (reduce order).
func treeEdges(n, arity int, down bool, edge func(lo, head int)) {
	if arity < 2 {
		panic(fmt.Sprintf("collectives: tree arity %d < 2", arity))
	}
	heads := func(lo, hi int) {
		for i := 1; i < arity; i++ {
			if head := lo + i*(hi-lo)/arity; head != lo+(i-1)*(hi-lo)/arity {
				edge(lo, head) // else an empty chunk (hi-lo < arity)
			}
		}
	}
	var rec func(lo, hi int)
	rec = func(lo, hi int) {
		if hi-lo <= 1 {
			return
		}
		if down {
			heads(lo, hi)
		}
		for i := 0; i < arity; i++ {
			if clo, chi := lo+i*(hi-lo)/arity, lo+(i+1)*(hi-lo)/arity; chi > clo {
				rec(clo, chi)
			}
		}
		if !down {
			heads(lo, hi)
		}
	}
	rec(0, n)
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
