package core

import (
	"fmt"

	"repro/internal/collectives"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/order"
	"repro/internal/zorder"
)

// apGeometry returns the block side bs (blocks are bs x bs cells, bs^2 >= n
// so a block can hold the whole array row-major) and the block-grid side bg
// (bg x bg blocks, bg a power of two >= bs so there are >= n blocks and the
// replication recursion stays balanced).
func apGeometry(n int) (bs, bg int) {
	bs = zorder.FloorSqrt(n)
	if bs*bs < n {
		bs++
	}
	bg = 1
	for bg < bs {
		bg *= 2
	}
	return bs, bg
}

// AllPairsScratchSide returns the side of the square scratch region needed
// by AllPairsSort for n elements: bg*bs cells per side — O(n) x O(n) as in
// Lemma V.5.
func AllPairsScratchSide(n int) int {
	if n <= 1 {
		return 1
	}
	bs, bg := apGeometry(n)
	return bs * bg
}

// AllPairsSort sorts the n elements stored in register reg at the positions
// of track t, in place, by comparing every element with every other element
// (Lemma V.5):
//
//  1. scatter element A_i to the first processor of block Gamma_i of the
//     scratch region (the scratch is subdivided into >= n blocks of side B
//     with B^2 >= n);
//  2. broadcast A_i within block Gamma_i;
//  3. replicate the whole array to every block using the 2-D broadcast
//     communication pattern with blocks as units;
//  4. compare the two elements at every processor;
//  5. reduce within each block to obtain the rank of A_i, then route A_i
//     directly to position rank_i of the track.
//
// Ranks are made distinct by breaking value ties with the input index, so
// the sort is stable. Costs: O(n^{5/2}) energy, O(log n) depth, O(n)
// distance (plus the track-to-scratch distance). The scratch must have side
// AllPairsScratchSide(n); all its scratch registers are freed on return.
func AllPairsSort(m *machine.Machine, t grid.Track, reg machine.Reg, n int, scratch grid.Rect, less order.Less) {
	if n <= 1 {
		return
	}
	side := AllPairsScratchSide(n)
	if scratch.H < side || scratch.W < side {
		panic(fmt.Sprintf("core: all-pairs scratch %v smaller than required side %d", scratch, side))
	}
	bs, bg := apGeometry(n)

	blockRect := func(i int) grid.Rect {
		return grid.Rect{Origin: scratch.At(i/bg*bs, i%bg*bs), H: bs, W: bs}
	}

	// Step 1: scatter element i (tagged with its index for stable ranking)
	// to the origin of block i.
	m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
		for i := 0; i < n; i++ {
			v := tagged{v: m.Get(t.At(i), reg), idx: i}
			send(t.At(i), blockRect(i).Origin, "ap.own", v)
		}
	})

	// Step 2: broadcast A_i within its block.
	for i := 0; i < n; i++ {
		collectives.Broadcast(m, blockRect(i), "ap.own")
	}

	// Step 3: replicate the array to every block. First lay the array out
	// row-major inside block 0, then copy blocks recursively in the 2-D
	// broadcast pattern (quadrants of the b x b block grid).
	b0 := grid.RowMajor(blockRect(0))
	m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
		for i := 0; i < n; i++ {
			v := tagged{v: m.Get(t.At(i), reg), idx: i}
			send(t.At(i), b0.At(i), "ap.arr", v)
		}
	})
	replicateBlocks(m, scratch, bs, bg, 0, 0, bg, n)

	// Step 4 + 5: every cell j of block i compares A_j with A_i; a
	// reduction per block counts how many elements precede A_i.
	for i := 0; i < n; i++ {
		blk := blockRect(i)
		own := m.Get(blk.Origin, "ap.own").(tagged)
		tr := grid.RowMajor(blk)
		for j := 0; j < blk.Size(); j++ {
			cnt := int64(0)
			if j < n && m.Get(tr.At(j), "ap.arr").(tagged).before(own, less) {
				cnt = 1
			}
			m.Set(tr.At(j), "ap.cnt", cnt)
		}
		collectives.Reduce(m, blk, "ap.cnt", collectives.AddInt)
	}

	// Route each element from its block origin straight to its sorted
	// position on the track, then free all scratch registers.
	m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
		for i := 0; i < n; i++ {
			blk := blockRect(i)
			rank := int(m.Get(blk.Origin, "ap.cnt").(int64))
			send(blk.Origin, t.At(rank), reg, m.Get(blk.Origin, "ap.own").(tagged).v)
		}
	})
	for i := 0; i < n; i++ {
		blk := blockRect(i)
		tr := grid.RowMajor(blk)
		for j := 0; j < blk.Size(); j++ {
			m.Del(tr.At(j), "ap.own")
			m.Del(tr.At(j), "ap.arr")
			m.Del(tr.At(j), "ap.cnt")
		}
	}
}

// replicateBlocks copies the "ap.arr" contents of the block at block-coords
// (br, bc) to all *needed* blocks of the s x s block-quadrant anchored
// there, following the recursive 2-D broadcast pattern with blocks as
// units. Only blocks with row-major index below n hold an element, so
// quadrants whose smallest block index is already >= n are pruned — they
// would only replicate into unused scratch. Only the first n cells
// (row-major) of each block carry data.
func replicateBlocks(m *machine.Machine, scratch grid.Rect, bs, bg, br, bc, s, n int) {
	if s == 1 || br*bg+bc >= n {
		return
	}
	h := s / 2
	targets := [3][2]int{{br, bc + h}, {br + h, bc}, {br + h, bc + h}}
	src := grid.RowMajor(grid.Rect{Origin: scratch.At(br*bs, bc*bs), H: bs, W: bs})
	for _, tg := range targets {
		if tg[0]*bg+tg[1] >= n {
			continue // no element lives in this quadrant
		}
		dst := grid.RowMajor(grid.Rect{Origin: scratch.At(tg[0]*bs, tg[1]*bs), H: bs, W: bs})
		m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
			for i := 0; i < n; i++ {
				send(src.At(i), dst.At(i), "ap.arr", m.Get(src.At(i), "ap.arr"))
			}
		})
	}
	replicateBlocks(m, scratch, bs, bg, br, bc, h, n)
	replicateBlocks(m, scratch, bs, bg, br, bc+h, h, n)
	replicateBlocks(m, scratch, bs, bg, br+h, bc, h, n)
	replicateBlocks(m, scratch, bs, bg, br+h, bc+h, h, n)
}
