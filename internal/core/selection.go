package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/collectives"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/order"
	"repro/internal/sortnet"
	"repro/internal/zorder"
)

// Select returns the rank-k element (1-indexed, k-th smallest under less) of
// the r.Size() elements stored in register reg on the square region r,
// using the randomized selection of Section VI: O(n) energy, O(log^2 n)
// depth and O(sqrt n) distance with high probability (Theorem VI.3). The
// input registers are left unchanged.
//
// Elements are iteratively narrowed down: each round samples every active
// element with probability c/sqrt(N), sorts the sample with a bitonic
// network, picks two pivots that bracket the target rank with high
// probability, and deactivates everything outside the bracket. When the
// target rank falls in the upper half, the comparator is flipped instead of
// moving data (step 7). If a round's pivots fail to bracket the target (low
// probability) the algorithm falls back to a full 2-D Mergesort, exactly as
// the paper prescribes.
func Select(m *machine.Machine, r grid.Rect, reg machine.Reg, k int, less order.Less, rng *rand.Rand) machine.Value {
	n := r.Size()
	if k < 1 || k > n {
		panic(fmt.Sprintf("core: Select rank %d out of range [1,%d]", k, n))
	}
	if !r.IsSquare() || !zorder.IsPow2(r.H) {
		panic(fmt.Sprintf("core: Select requires a square power-of-two region, got %v", r))
	}
	const c = 4.0
	t := grid.ZOrder(r)
	for i := 0; i < n; i++ {
		m.Set(t.At(i), "sel.active", true)
	}
	defer grid.Clear(m, t, "sel.active", n)

	curLess := less
	lnN := math.Log(float64(max(n, 3)))
	activeN := n
	stop := int(math.Ceil(c * math.Sqrt(float64(n))))

	for round := 0; activeN > stop; round++ {
		if round >= 48 {
			// Statistically unreachable; guarantees termination.
			return fallbackSort(m, r, t, reg, k, curLess)
		}
		// Step 7 (hoisted to the loop head): keep k in the lower half by
		// logically reversing the order.
		if k > (activeN+1)/2 {
			k = activeN - k + 1
			curLess = order.Reverse(curLess)
		}
		fN := float64(activeN)
		p := c / math.Sqrt(fN)

		// Steps 1-2: sample active elements, index the sample with a scan
		// and gather it into a square scratch subgrid.
		sampleN := markScan(m, r, t, func(i int) bool {
			return isActive(m, t.At(i)) && rng.Float64() < p
		})
		if sampleN < 2 {
			grid.Clear(m, t, regIdx, n)
			continue // degenerate sample; redraw
		}
		s2 := zorder.NextPow2(sampleN)
		sside := grid.Pow2Side(s2)
		sTrack := grid.RowMajor(r.RightOf(sside, sside))
		compact(m, t, reg, sTrack, "sel.sq", sampleN, s2)

		// Step 3: bitonic-sort the sample and choose the two pivots.
		sortnet.Sort(m, sTrack, "sel.sq", s2, paddedLess(curLess))
		dev := (c / 2) * math.Pow(fN, 0.25) * math.Sqrt(lnN)
		mid := c * float64(k) / math.Sqrt(fN)
		rIdx := clamp(int(math.Ceil(mid+dev)), 1, sampleN)
		lFrom := -1
		if float64(k) >= 0.5*math.Pow(fN, 0.75)*math.Sqrt(lnN) {
			lFrom = clamp(int(math.Floor(mid-dev)), 1, sampleN) - 1
		}

		// Step 4: broadcast the pivots across the original subgrid.
		m.Send(sTrack.At(rIdx-1), "sel.sq", r.Origin, "sel.hi")
		collectives.Broadcast(m, r, "sel.hi")
		if lFrom >= 0 {
			m.Send(sTrack.At(lFrom), "sel.sq", r.Origin, "sel.lo")
		} else {
			m.Set(r.Origin, "sel.lo", padded{inf: -1}) // dummy pivot s_l = -infinity
		}
		collectives.Broadcast(m, r, "sel.lo")
		grid.Clear(m, sTrack, "sel.sq", s2)

		// Step 5: count active elements outside the pivot bracket.
		plt := paddedLess(curLess)
		nLess := countActive(m, r, t, func(i int) bool {
			return plt(padded{v: m.Get(t.At(i), reg)}, m.Get(t.At(i), "sel.lo"))
		})
		nGreater := countActive(m, r, t, func(i int) bool {
			return plt(m.Get(t.At(i), "sel.hi"), padded{v: m.Get(t.At(i), reg)})
		})
		if nLess >= k || nGreater >= activeN-k {
			grid.Clear(m, t, "sel.lo", n)
			grid.Clear(m, t, "sel.hi", n)
			return fallbackSort(m, r, t, reg, k, curLess)
		}

		// Step 6: deactivate elements outside the bracket.
		for i := 0; i < n; i++ {
			cell := t.At(i)
			if isActive(m, cell) {
				v := padded{v: m.Get(cell, reg)}
				if plt(v, m.Get(cell, "sel.lo").(padded)) || plt(m.Get(cell, "sel.hi").(padded), v) {
					m.Set(cell, "sel.active", false)
				}
			}
			m.Del(cell, "sel.lo")
			m.Del(cell, "sel.hi")
		}
		k -= nLess
		activeN = countActive(m, r, t, func(i int) bool { return true })
	}

	// Termination: gather the few remaining active elements, sort them
	// with the bitonic network, and read off the rank-k element.
	rem := markScan(m, r, t, func(i int) bool { return isActive(m, t.At(i)) })
	if rem == 0 || k > rem {
		// Unreachable: the pivot validation in step 5 guarantees the
		// target element stays active and 1 <= k <= rem.
		panic(fmt.Sprintf("core: Select invariant violated: k=%d active=%d", k, rem))
	}
	s2 := zorder.NextPow2(rem)
	sside := grid.Pow2Side(s2)
	sTrack := grid.RowMajor(r.RightOf(sside, sside))
	compact(m, t, reg, sTrack, "sel.sq", rem, s2)
	sortnet.Sort(m, sTrack, "sel.sq", s2, paddedLess(curLess))
	out := m.Get(sTrack.At(k-1), "sel.sq").(padded).v
	grid.Clear(m, sTrack, "sel.sq", s2)
	return out
}

// Median returns the lower median (rank ceil(n/2)) of the elements on r.
func Median(m *machine.Machine, r grid.Rect, reg machine.Reg, less order.Less, rng *rand.Rand) machine.Value {
	return Select(m, r, reg, (r.Size()+1)/2, less, rng)
}

// regIdx holds the marks, then their inclusive prefix counts, of a
// compaction.
const regIdx = "sel.idx"

// markScan sets regIdx at every position of t to 1 where mark holds and 0
// elsewhere, calling mark once per position in track order, and turns the
// marks into inclusive prefix counts with the Z-order scan over r (t must
// be r's Z-order track). It returns the number of marked positions.
func markScan(m *machine.Machine, r grid.Rect, t grid.Track, mark func(i int) bool) int {
	for i := 0; i < t.Len(); i++ {
		cnt := int64(0)
		if mark(i) {
			cnt = 1
		}
		m.Set(t.At(i), regIdx, cnt)
	}
	return int(collectives.Scan(m, r, regIdx, collectives.AddInt, int64(0)).(int64))
}

// compact sends the element in reg of every position markScan marked (its
// prefix count exceeds its predecessor's) to the dst slot its prefix count
// names, in one round, clears the prefix counts, and fills dst's slots
// [marked, size) with +infinity pads.
func compact(m *machine.Machine, t grid.Track, reg machine.Reg, dst grid.Track, dstReg machine.Reg, marked, size int) {
	m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
		prev := int64(0)
		for i := 0; i < t.Len(); i++ {
			pos := m.Get(t.At(i), regIdx).(int64)
			if pos > prev {
				send(t.At(i), dst.At(int(pos-1)), dstReg, padded{v: m.Get(t.At(i), reg)})
			}
			prev = pos
		}
	})
	grid.Clear(m, t, regIdx, t.Len())
	for i := marked; i < size; i++ {
		m.Set(dst.At(i), dstReg, padded{inf: 1})
	}
}

// countActive counts active elements satisfying pred via a reduction.
func countActive(m *machine.Machine, r grid.Rect, t grid.Track, pred func(i int) bool) int {
	n := t.Len()
	for i := 0; i < n; i++ {
		cnt := int64(0)
		if isActive(m, t.At(i)) && pred(i) {
			cnt = 1
		}
		m.Set(t.At(i), "sel.cnt", cnt)
	}
	collectives.Reduce(m, r, "sel.cnt", collectives.AddInt)
	out := int(m.Get(r.Origin, "sel.cnt").(int64))
	grid.Clear(m, t, "sel.cnt", n)
	return out
}

func isActive(m *machine.Machine, c machine.Coord) bool {
	v, ok := m.Lookup(c, "sel.active")
	return ok && v.(bool)
}

// fallbackSort gathers the still-active elements into a scratch square,
// sorts them with the 2-D Mergesort and returns the rank-k element under the
// comparator in effect ("sort the input using 2D Mergesort and return the
// rank k element", Section VI step 5). k is a rank among active elements.
func fallbackSort(m *machine.Machine, r grid.Rect, t grid.Track, reg machine.Reg, k int, less order.Less) machine.Value {
	active := markScan(m, r, t, func(i int) bool { return isActive(m, t.At(i)) })
	side := grid.Pow2Side(active)
	scratch := r.Below(side, side)
	sTrack := grid.RowMajor(scratch)
	compact(m, t, reg, sTrack, "sel.fb", active, scratch.Size())
	MergeSort(m, scratch, "sel.fb", paddedLess(less))
	out := m.Get(sTrack.At(k-1), "sel.fb").(padded).v
	grid.Clear(m, sTrack, "sel.fb", scratch.Size())
	return out
}

func clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
