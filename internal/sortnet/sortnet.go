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
// trace sink or memory limit is attached), there is no register traffic.
// Each track's values are replaced host-side by their ranks under the
// track's order, the comparators swap ranks, and each level is charged with
// one machine.Wires exchange call per track; the values are written back
// once, in the order the ranks ended in. Energy, Depth, Distance, Messages
// and the output stay bit-identical, since for a strict weak ordering (see
// order.Less) comparing ranks decides every swap as comparing values does.
// Large networks stream their levels (see Levels) so a 2^20-wire bitonic
// network never materializes its ~2*10^8 comparators at once.
package sortnet

import (
	"fmt"
	"sort"
	"sync"

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
// when no trace sink or memory limit is attached — the network runs on
// host-side ranks and a Wires counting kernel instead (runManyCounting),
// with the same costs and the same output.
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

// runManyCounting is RunMany on the counting-only fast path. The tracks are
// flattened into one wire list bound to a machine.Wires kernel, so a
// track's wires (and their clocks) sit side by side whatever its layout on
// the grid. Each track's values are ranked once under the track's own Less
// (rank), and the network then moves keys — a value's rank and the wire it
// came from — instead of values: each level is one Wires.Exchange call per
// track, charging the two counting messages of every comparator (sound
// because a level's comparators are vertex-disjoint), followed by the
// comparators' swaps on the keys. Since less(a, b) holds exactly when
// rank(a) < rank(b), every swap decision is the value path's, so the final
// permutation, and the place of every equal-but-distinct value, is too; the
// values are placed back into reg along it once, at the end. All cost
// metrics except PeakMemory (no "net.in" register ever materializes) are
// bit-identical.
func runManyCounting(m *machine.Machine, ls Levels, tracks []TrackRun, reg machine.Reg) {
	s := scratchPool.Get().(*scratch)
	s.cs = s.cs[:0]
	for _, tr := range tracks {
		for i := 0; i < tr.Track.Len(); i++ {
			s.cs = append(s.cs, tr.Track.At(i))
		}
	}
	total := len(s.cs)
	w := m.BindWires(s.cs)
	s.vals, s.keys = resize(s.vals, total), resize(s.keys, total)
	w.Load(reg, s.vals)
	base := 0
	for _, tr := range tracks {
		n := tr.Track.Len()
		s.rank(base, n, tr.Less)
		base += n
	}
	for l := 0; l < ls.Count; l++ {
		s.level = ls.At(l, s.level)
		for from := 0; from < len(s.level); from += chunk {
			cmps := s.level[from:min(from+chunk, len(s.level))]
			s.pairs = s.pairs[:0]
			for _, c := range cmps {
				s.pairs = append(s.pairs, machine.Pair{I: c.Lo, J: c.Hi})
			}
			base := 0
			for _, tr := range tracks {
				w.Exchange(base, s.pairs)
				swap(s.keys[base:], cmps)
				base += tr.Track.Len()
			}
		}
	}
	s.out = resize(s.out, total)
	for i, k := range s.keys {
		s.out[i] = s.vals[k.src()]
	}
	w.Store(reg, s.out)
	w.Close()
	if total <= maxPooled {
		clear(s.vals) // the pool must not keep the values alive
		clear(s.out)
		scratchPool.Put(s)
	}
}

// chunk is how many comparators of a level runManyCounting charges and
// applies at a time: their kernel pairs stay in the L1 cache, and a level
// too large for the cache is read from memory once, not twice.
const chunk = 1024

// swap applies the comparators to the keys of one track as the value path
// applies them to values: the key of smaller rank ends at Lo if Asc and at
// Hi otherwise, and on a tie the key at Lo counts as the smaller one.
func swap(keys []key, cmps []Comparator) {
	for _, c := range cmps {
		small, large := keys[c.Lo], keys[c.Hi]
		if large.rank() < small.rank() {
			small, large = large, small
		}
		if c.Asc {
			keys[c.Lo], keys[c.Hi] = small, large
		} else {
			keys[c.Lo], keys[c.Hi] = large, small
		}
	}
}

// key stands for a value during a counting run: the rank of the value
// within its track in the high 32 bits, the wire it came from in the low
// 32. One word, so a comparator's swap is two conditional moves.
type key uint64

func newKey(rank, src uint32) key { return key(rank)<<32 | key(src) }
func (k key) rank() uint32        { return uint32(k >> 32) }
func (k key) src() int            { return int(uint32(k)) }

// scratch holds runManyCounting's buffers. They are pooled, so the
// 2·log2(side)+3 phases of a Shearsort, and the many small networks
// inside a mergesort, allocate them once instead of once per call.
// Buffers for more than maxPooled wires are left to the garbage collector:
// a network that large is one call per sort, and pooled buffers (60 bytes
// a wire) would stay live through whatever the program runs next.
type scratch struct {
	cs    []machine.Coord
	vals  []machine.Value // the loaded values, by wire
	out   []machine.Value // the sorted values, by wire
	keys  []key
	idx   []uint32 // rank's sort order
	level []Comparator
	pairs []machine.Pair
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

const maxPooled = 1 << 16

// rank keys the n wires from base on, which hold one track, under that
// track's less: the wires are sorted by value, and a value's rank is the
// number of strictly smaller values' classes, so equal values share a rank
// and, less being a strict weak ordering, less(a, b) holds exactly when
// rank(a) < rank(b).
func (s *scratch) rank(base, n int, less order.Less) {
	vals, idx := s.vals[base:base+n], resize(s.idx, n)
	for i := range idx {
		idx[i] = uint32(i)
	}
	sort.Slice(idx, func(a, b int) bool { return less(vals[idx[a]], vals[idx[b]]) })
	var r uint32
	for k, i := range idx {
		if k > 0 && less(vals[idx[k-1]], vals[i]) {
			r++
		}
		s.keys[base+int(i)] = newKey(r, uint32(base)+i)
	}
	s.idx = idx
}

// resize returns s with length n, reusing its backing array when it is
// large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
