// Package sortnet implements sorting networks mapped onto the Spatial
// Computer Model grid (Section V-B of the paper).
//
// Sorting networks are data-oblivious: for each time step they define a set
// of disjoint index pairs to compare-and-swap, depending only on the input
// size. Mapping each wire to a processor (row-major by default) yields a
// low-depth spatial sorting algorithm, but — as Lemmas V.3 and V.4 show —
// an energy-suboptimal one: Bitonic Sort takes Theta(n^{3/2} log n) energy
// on a square subgrid, a Theta(log n) factor above the permutation lower
// bound, because the recursion eventually degenerates into a 1-D algorithm
// inside single rows.
//
// Each network level executes as one machine.Par round (two messages per
// comparator), which makes large levels eligible for shard-parallel
// delivery. Because the communication pattern is oblivious to the values,
// the package also supports the machine's counting-only fast path: when
// machine.CountingOnly() reports true (SetBatchSends admitted it and no
// trace sink or memory limit is attached), values are kept host-side and each
// comparator is one exchange on a machine.Wires kernel bound to the
// network's wires instead of register traffic, leaving Energy, Depth,
// Distance and Messages bit-identical. Large networks stream their levels
// (see Levels) so a 2^20-wire bitonic network never materializes its
// ~2*10^8 comparators at once.
package sortnet

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/order"
	"repro/internal/zorder"
)

// Comparator compares wires Lo < Hi at one network step; if Asc, the smaller
// value ends at Lo, otherwise at Hi.
type Comparator struct {
	Lo, Hi int
	Asc    bool
}

// Network is a sorting (or merging) network: a sequence of levels, each a
// set of disjoint comparators executed in parallel. A materialized Network
// is convenient for small sizes and tests; the runners work on the
// streaming Levels form so large networks need not be materialized.
type Network [][]Comparator

// Depth returns the number of levels.
func (nw Network) Depth() int { return len(nw) }

// Comparators returns the total comparator count.
func (nw Network) Comparators() int {
	total := 0
	for _, level := range nw {
		total += len(level)
	}
	return total
}

// Levels adapts the materialized network to the streaming form.
func (nw Network) Levels() Levels {
	return Levels{
		Count: len(nw),
		At: func(level int, buf []Comparator) []Comparator {
			return append(buf[:0], nw[level]...)
		},
	}
}

// Levels is the streaming form of a sorting network: Count levels, each
// generated on demand into a caller-provided buffer. At must be
// deterministic; the runners reuse one buffer across levels, so the
// returned slice is only valid until the next call.
type Levels struct {
	Count int
	At    func(level int, buf []Comparator) []Comparator
}

// Bitonic returns Batcher's bitonic sorting network for n wires (n a power
// of two): O(log^2 n) levels and O(n log^2 n) comparators. For large n
// prefer BitonicLevels, which streams the same network without
// materializing it.
func Bitonic(n int) Network {
	ls := BitonicLevels(n)
	nw := make(Network, ls.Count)
	for i := range nw {
		nw[i] = ls.At(i, nil)
	}
	return nw
}

// BitonicLevels streams Batcher's bitonic sorting network for n wires (n a
// power of two) level by level.
func BitonicLevels(n int) Levels {
	if !zorder.IsPow2(n) {
		panic(fmt.Sprintf("sortnet: Bitonic requires power-of-two size, got %d", n))
	}
	type step struct{ k, j int }
	var steps []step
	for k := 2; k <= n; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			steps = append(steps, step{k, j})
		}
	}
	return Levels{
		Count: len(steps),
		At: func(level int, buf []Comparator) []Comparator {
			s := steps[level]
			buf = buf[:0]
			for i := 0; i < n; i++ {
				l := i ^ s.j
				if l > i {
					buf = append(buf, Comparator{Lo: i, Hi: l, Asc: i&s.k == 0})
				}
			}
			return buf
		},
	}
}

// BitonicMerge returns the merge network that sorts a bitonic sequence of n
// wires — in particular the concatenation of an ascending and a descending
// sorted half: O(log n) levels, n/2 comparators each (Figure 2, Lemma V.3).
func BitonicMerge(n int) Network {
	if !zorder.IsPow2(n) {
		panic(fmt.Sprintf("sortnet: BitonicMerge requires power-of-two size, got %d", n))
	}
	var nw Network
	for j := n >> 1; j > 0; j >>= 1 {
		var level []Comparator
		for i := 0; i < n; i++ {
			l := i ^ j
			if l > i {
				level = append(level, Comparator{Lo: i, Hi: l, Asc: true})
			}
		}
		nw = append(nw, level)
	}
	return nw
}

// OddEvenMergeSort returns Batcher's odd-even mergesort network for n wires
// (n a power of two): the same O(log^2 n) depth family as the bitonic
// network with roughly half the comparators — the second classic
// data-oblivious baseline.
func OddEvenMergeSort(n int) Network {
	if !zorder.IsPow2(n) {
		panic(fmt.Sprintf("sortnet: OddEvenMergeSort requires power-of-two size, got %d", n))
	}
	var nw Network
	for p := 1; p < n; p *= 2 {
		for k := p; k >= 1; k /= 2 {
			var level []Comparator
			for j := k % p; j <= n-1-k; j += 2 * k {
				for i := 0; i <= min(k-1, n-j-k-1); i++ {
					if (i+j)/(2*p) == (i+j+k)/(2*p) {
						level = append(level, Comparator{Lo: i + j, Hi: i + j + k, Asc: true})
					}
				}
			}
			nw = append(nw, level)
		}
	}
	return nw
}

// OddEvenTransposition returns the odd-even transposition (brick) network:
// n levels of neighbor comparators. On a 1-D layout it is the classic
// linear-depth, linear-distance mesh algorithm.
func OddEvenTransposition(n int) Network {
	ls := OddEvenTranspositionLevels(n)
	nw := make(Network, ls.Count)
	for i := range nw {
		nw[i] = ls.At(i, nil)
	}
	return nw
}

// OddEvenTranspositionLevels streams the odd-even transposition network.
func OddEvenTranspositionLevels(n int) Levels {
	return Levels{
		Count: n,
		At: func(step int, buf []Comparator) []Comparator {
			buf = buf[:0]
			for i := step % 2; i+1 < n; i += 2 {
				buf = append(buf, Comparator{Lo: i, Hi: i + 1, Asc: true})
			}
			return buf
		},
	}
}

// TrackRun pairs one track with the comparison order its elements sort by,
// for fused execution of the same network over many disjoint tracks (see
// RunMany). Use order.Reverse(less) to sort a track descending.
type TrackRun struct {
	Track grid.Track
	Less  order.Less
}

// Run executes the network on the machine over the wires of track t, whose
// register reg holds the elements (every track position must hold one).
// Each comparator is realized as one message round trip between the two
// wire PEs (both PEs send their value, then locally keep the min or max),
// so a comparator between PEs at Manhattan distance d costs 2d energy.
// Levels execute as Par rounds; when the machine reports CountingOnly,
// values stay host-side and the rounds are counting-only.
func Run(m *machine.Machine, nw Network, t grid.Track, reg machine.Reg, less order.Less) {
	RunLevels(m, nw.Levels(), t, reg, less)
}

// RunLevels is Run over the streaming network form.
func RunLevels(m *machine.Machine, ls Levels, t grid.Track, reg machine.Reg, less order.Less) {
	RunMany(m, ls, []TrackRun{{Track: t, Less: less}}, reg)
}

// RunMany executes the same network over many pairwise disjoint tracks,
// fusing level i of every track into one Par round. Comparator chains never
// cross tracks, so the resulting metrics are identical to running the
// network on each track sequentially — but the fused rounds are large
// enough for the machine's sharded delivery to parallelize, where the
// per-track rounds (e.g. one row of a mesh) would be too small. The tracks
// must be pairwise disjoint and every track position must hold reg. When
// the machine reports CountingOnly — the fast path SetBatchSends admits
// when no trace sink or memory limit is attached — the levels run on a
// Wires counting kernel instead (runManyCounting).
func RunMany(m *machine.Machine, ls Levels, tracks []TrackRun, reg machine.Reg) {
	if m.CountingOnly() {
		runManyCounting(m, ls, tracks, reg)
		return
	}
	var level []Comparator
	for l := 0; l < ls.Count; l++ {
		level = ls.At(l, level)
		m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
			for _, tr := range tracks {
				for _, c := range level {
					lo, hi := tr.Track.At(c.Lo), tr.Track.At(c.Hi)
					send(lo, hi, "net.in", m.Get(lo, reg))
					send(hi, lo, "net.in", m.Get(hi, reg))
				}
			}
		})
		for _, tr := range tracks {
			for _, c := range level {
				lo, hi := tr.Track.At(c.Lo), tr.Track.At(c.Hi)
				a := m.Get(lo, reg)      // value at the low wire
				b := m.Get(lo, "net.in") // value received from the high wire
				small, large := a, b
				if tr.Less(b, a) {
					small, large = b, a
				}
				if c.Asc {
					m.Set(lo, reg, small)
					m.Set(hi, reg, large)
				} else {
					m.Set(lo, reg, large)
					m.Set(hi, reg, small)
				}
				m.Del(lo, "net.in")
				m.Del(hi, "net.in")
			}
		}
	}
}

// runManyCounting is RunMany on the counting-only fast path: the values
// live in host memory and each comparator is one machine.Wires exchange —
// the fused form of the two counting messages the register-delivering path
// would send, sound because the comparators of a level are vertex-disjoint.
// The tracks are flattened into one wire list, so a track's wires (and their
// clocks) sit side by side whatever its layout on the grid. The sorted
// values are placed back into reg at the end. All cost metrics except
// PeakMemory (no "net.in" register ever materializes) are bit-identical.
func runManyCounting(m *machine.Machine, ls Levels, tracks []TrackRun, reg machine.Reg) {
	total := 0
	for _, tr := range tracks {
		total += tr.Track.Len()
	}
	cs := make([]machine.Coord, 0, total)
	vals := make([]machine.Value, 0, total)
	for _, tr := range tracks {
		for i := 0; i < tr.Track.Len(); i++ {
			c := tr.Track.At(i)
			cs = append(cs, c)
			vals = append(vals, m.Get(c, reg))
		}
	}
	w := m.BindWires(cs)
	var level []Comparator
	for l := 0; l < ls.Count; l++ {
		level = ls.At(l, level)
		base := 0
		for _, tr := range tracks {
			for _, c := range level {
				lo, hi := base+c.Lo, base+c.Hi
				w.Exchange(lo, hi)
				a, bv := vals[lo], vals[hi]
				small, large := a, bv
				if tr.Less(bv, a) {
					small, large = bv, a
				}
				if c.Asc {
					vals[lo], vals[hi] = small, large
				} else {
					vals[lo], vals[hi] = large, small
				}
			}
			base += tr.Track.Len()
		}
	}
	w.Close()
	for i, c := range cs {
		m.Set(c, reg, vals[i])
	}
}

// Sort runs the full bitonic sorting network over the first n positions of
// track t. n must be a power of two. With a row-major track on an h x w
// subgrid this is the paper's baseline with Theta(h^2 w + w^2 h log h)
// energy, Theta(log^2 n) depth and Theta(h + w log h) distance (Lemma V.4).
func Sort(m *machine.Machine, t grid.Track, reg machine.Reg, n int, less order.Less) {
	RunLevels(m, BitonicLevels(n), grid.Slice(t, 0, n), reg, less)
}

// Shearsort sorts the n = side*side elements stored row-major on the square
// region r into snake order (even rows ascending left-to-right, odd rows
// right-to-left), then permutes snake order to row-major. It alternates
// row and column odd-even transposition phases for ceil(log2 side)+1
// rounds — a classic mesh-connected-computer algorithm (Section II-B):
// polynomial Theta(sqrt(n) log n) depth, which is exactly what the paper's
// polylog-depth algorithms improve upon. Each phase runs all rows (or all
// columns) fused through RunMany, so one transposition step of the whole
// mesh is a single Par round of side^2 messages.
func Shearsort(m *machine.Machine, r grid.Rect, reg machine.Reg, less order.Less) {
	if !r.IsSquare() {
		panic(fmt.Sprintf("sortnet: Shearsort requires a square region, got %v", r))
	}
	side := r.H
	rounds := zorder.Log2(zorder.NextPow2(side)) + 1
	net := OddEvenTranspositionLevels(side)
	// Snake order: even rows ascend, odd rows descend; columns always ascend.
	rows := make([]TrackRun, side)
	cols := make([]TrackRun, side)
	for i := 0; i < side; i++ {
		rows[i] = TrackRun{Track: rowTrack(r, i), Less: less}
		if i%2 == 1 {
			rows[i].Less = order.Reverse(less)
		}
		cols[i] = TrackRun{Track: colTrack(r, i), Less: less}
	}
	for round := 0; round < rounds; round++ {
		RunMany(m, net, rows, reg)
		RunMany(m, net, cols, reg)
	}
	// One final row phase leaves the snake fully sorted.
	RunMany(m, net, rows, reg)
	// Permute snake order to row-major.
	perm := make([]int, side*side)
	for i := range perm {
		row, col := i/side, i%side
		if row%2 == 1 {
			col = side - 1 - col
		}
		perm[row*side+col] = i
	}
	grid.Route(m, grid.RowMajor(r), reg, grid.RowMajor(r), reg, perm)
}

func rowTrack(r grid.Rect, row int) grid.Track {
	return grid.Slice(grid.RowMajor(r), row*r.W, r.W)
}

func colTrack(r grid.Rect, col int) grid.Track {
	cs := make([]machine.Coord, r.H)
	for i := range cs {
		cs[i] = r.At(i, col)
	}
	return grid.Coords(cs...)
}
