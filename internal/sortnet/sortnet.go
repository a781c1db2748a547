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
// track's order, the comparators swap ranks, and each level is charged on
// a machine.Wires kernel, one exchange call per track and chunk of
// comparators; the values are written back once, in the order the ranks
// ended in. Energy, Depth, Distance, Messages and the output stay
// bit-identical, since for a strict weak ordering (see order.Less)
// comparing ranks decides every swap as comparing values does. On a
// sharded machine the kernel charges from several lanes at once: the
// tracks of a fused phase are split among them, and one large track runs
// block by block where its levels stay inside blocks (Levels.Span) and
// split by comparator range elsewhere, with the same costs and output for
// every shard count. Large networks stream their levels (see Levels) so a
// 2^20-wire bitonic network never materializes its ~2*10^8 comparators at
// once.
package sortnet

import (
	"fmt"
	"slices"
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
// returned slice is only valid until the next call. The counting path may
// call At, and Block, from several goroutines at once (see RunMany), so
// both must be safe for concurrent calls: writing only into buf, as every
// Levels of this package does, is.
//
// Span and Block, when set, let a runner cut a level into parts on
// disjoint wires: every comparator of level l joins two wires of one
// aligned block of Span(l) wires, Span(l) being a power of two, and
// Block(l, lo, hi, buf) generates the comparators of level l on wires lo
// to hi-1 in At's order, for lo and hi on boundaries of such blocks (or hi
// past the network's last wire).
type Levels struct {
	Count int
	At    func(level int, buf []Comparator) []Comparator
	Span  func(level int) int
	Block func(level, lo, hi int, buf []Comparator) []Comparator
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
// power of two) level by level. The level of stage k and distance j pairs
// wire i with i+j inside aligned blocks of 2j wires, which it declares as
// its Span.
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
	block := func(level, lo, hi int, buf []Comparator) []Comparator {
		s := steps[level]
		hi = max(lo, min(hi, n))
		buf = slices.Grow(buf[:0], (hi-lo)/2)[:(hi-lo)/2]
		p := 0
		for b := lo; b < hi; b += 2 * s.j {
			asc := b&s.k == 0 // the same for the whole block, as k >= 2j
			for i := b; i < b+s.j; i++ {
				buf[p] = Comparator{Lo: i, Hi: i + s.j, Asc: asc}
				p++
			}
		}
		return buf
	}
	return Levels{
		Count: len(steps),
		At:    func(level int, buf []Comparator) []Comparator { return block(level, 0, n, buf) },
		Span:  func(level int) int { return 2 * steps[level].j },
		Block: block,
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
// with the same costs and the same output; on a sharded machine that
// kernel charges the tracks, or one track's blocks, from several lanes,
// which call ls.At and ls.Block concurrently.
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
// came from — instead of values: each part of a level is one
// machine.Lane.Exchange call per track (see run), charging the two counting
// messages of every comparator (sound because a level's comparators are
// vertex-disjoint), followed by the comparators' swaps on the keys. Since
// less(a, b) holds exactly when rank(a) < rank(b), every swap decision is
// the value path's, so the final permutation, and the place of every
// equal-but-distinct value, is too; the values are placed back into reg
// along it once, at the end. All cost metrics except PeakMemory (no
// "net.in" register ever materializes) are bit-identical.
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
	s.run(w, ls, tracks)
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

// run charges and applies the network on k lanes of w
// (machine.Wires.Fork), which charge and swap at once on disjoint wires.
// k is the kernel's lane count (Wires.Lanes), or fewer when the network
// has fewer than laneMin comparators a lane (lanesFor). The work takes one
// of two shapes:
//
//   - with at least k tracks, the tracks are cut into k runs of about
//     equal wire counts, and each lane takes every level over its own run
//     with no join between levels (fused); on one lane this is the plain
//     level-by-level loop over every track;
//   - otherwise each track runs on all k lanes in turn (track).
//
// The keys, clocks and costs are the same for every k, since a lane
// touches only its own wires, in the order one lane would, and the kernel
// merges the lanes' counters.
func (s *scratch) run(w *machine.Wires, ls Levels, tracks []TrackRun) {
	k := lanesFor(w.Lanes(), len(s.keys)/2, len(s.keys)/2*ls.Count)
	s.lanes = resize(s.lanes, k)
	if len(tracks) < k {
		base := 0
		for _, tr := range tracks {
			s.track(w, k, ls, base, tr.Track.Len())
			base += tr.Track.Len()
		}
		return
	}
	// starts[t] is track t's first wire; a track goes to the lane its first
	// wire falls in when the wires are cut into k equal runs, so cut[i] is
	// lane i's first track.
	s.starts, s.cut = s.starts[:0], s.cut[:0]
	total := max(len(s.keys), 1)
	base := 0
	for t, tr := range tracks {
		for len(s.cut) <= base*k/total {
			s.cut = append(s.cut, t)
		}
		s.starts = append(s.starts, base)
		base += tr.Track.Len()
	}
	for len(s.cut) <= k {
		s.cut = append(s.cut, len(tracks))
	}
	w.Fork(k, func(l *machine.Lane) {
		i := l.Index()
		s.fused(l, ls, s.starts[s.cut[i]:s.cut[i+1]])
	})
}

// laneMin is the fewest comparators worth a lane of their own: a network,
// or a part of a lane schedule between two joins, gets one lane per
// laneMin comparators it charges, up to the kernel's lane count. A lane
// fork costs a few microseconds; laneMin comparators take about a hundred.
var laneMin = 1 << 14

// fused runs every level from lane l over the tracks whose first wires are
// starts: each chunk of a level's comparators is charged with one
// Lane.Exchange call per track and applied to that track's keys.
func (s *scratch) fused(l *machine.Lane, ls Levels, starts []int) {
	ln := s.lanes[l.Index()]
	for v := 0; v < ls.Count; v++ {
		ln.level = ls.At(v, ln.level)
		for from := 0; from < len(ln.level); from += chunk {
			cmps := ln.level[from:min(from+chunk, len(ln.level))]
			ln.setPairs(cmps)
			for _, base := range starts {
				l.Exchange(base, ln.pairs)
				swap(s.keys[base:], cmps)
			}
		}
	}
	s.lanes[l.Index()] = ln
}

// track runs the network over the n wires of one track from base on, on
// k lanes. Each maximal run of consecutive levels whose comparators stay
// inside aligned blocks of block wires (Levels.Span) runs block by block,
// a lane taking every level of a block before its next block, so the
// block's wires stay in the cache; every other level is generated once and
// split among the lanes by comparator range, with a join after each.
func (s *scratch) track(w *machine.Wires, k int, ls Levels, base, n int) {
	keys := s.keys[base : base+n]
	blocked := func(v int) bool { return ls.Span != nil && block%ls.Span(v) == 0 }
	blocks := (n + block - 1) / block
	for v := 0; v < ls.Count; {
		if blocked(v) {
			end := v + 1
			for end < ls.Count && blocked(end) {
				end++
			}
			first, lk := v, lanesFor(k, blocks, (end-v)*n/2)
			w.Fork(lk, func(l *machine.Lane) {
				ln := s.lanes[l.Index()]
				for b := l.Index() * blocks / lk; b < (l.Index()+1)*blocks/lk; b++ {
					lo := b * block
					for v := first; v < end; v++ {
						ln.level = ls.Block(v, lo, min(lo+block, n), ln.level)
						ln.setPairs(ln.level)
						l.Exchange(base, ln.pairs)
						swap(keys, ln.level)
					}
				}
				s.lanes[l.Index()] = ln
			})
			v = end
			continue
		}
		// The whole level goes into lane 0's comparator buffer, which the
		// lanes only read until the join.
		level := ls.At(v, s.lanes[0].level)
		s.lanes[0].level = level
		lk := lanesFor(k, len(level), len(level))
		w.Fork(lk, func(l *machine.Lane) {
			ln := s.lanes[l.Index()]
			hi := (l.Index() + 1) * len(level) / lk
			for from := l.Index() * len(level) / lk; from < hi; from += chunk {
				cmps := level[from:min(from+chunk, hi)]
				ln.setPairs(cmps)
				l.Exchange(base, ln.pairs)
				swap(keys, cmps)
			}
			s.lanes[l.Index()].pairs = ln.pairs
		})
		v++
	}
}

// lanesFor returns how many of k lanes a fork of parts independent parts
// charging work comparators in all should run on: none idle, and each
// charging at least laneMin comparators, so that on a host with many
// shards a small network does not pay more for its forks than its lanes
// save.
func lanesFor(k, parts, work int) int {
	return max(1, min(k, parts, work/laneMin))
}

// chunk is how many comparators of a level runManyCounting charges and
// applies at a time: their kernel pairs stay in the L1 cache, and a level
// too large for the cache is read from memory once, not twice.
const chunk = 1024

// block is how many wires a lane takes through consecutive levels of one
// track before moving on (track): their clocks, homes and keys (80 KiB)
// stay in the L2 cache, and a level of a block is at most one chunk.
const block = 2 * chunk

// lane holds one lane's buffers: the comparators it generates and the
// kernel pairs it charges.
type lane struct {
	level []Comparator
	pairs []machine.Pair
}

// setPairs sets ln.pairs to the kernel pairs of cmps.
func (ln *lane) setPairs(cmps []Comparator) {
	ln.pairs = ln.pairs[:0]
	for _, c := range cmps {
		ln.pairs = append(ln.pairs, machine.Pair{I: c.Lo, J: c.Hi})
	}
}

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
	cs   []machine.Coord
	vals []machine.Value // the loaded values, by wire
	out  []machine.Value // the sorted values, by wire
	keys []key
	idx  []uint32 // rank's sort order
	// run's buffers: each lane's own, each track's first wire, and each
	// lane's first track.
	lanes  []lane
	starts []int
	cut    []int
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
