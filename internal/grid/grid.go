// Package grid provides rectangular processor regions and array layouts
// ("tracks") on the Spatial Computer Model grid.
//
// Algorithms in the paper operate on h x w subgrids of processors and store
// arrays on them in a specific traversal order: row-major or Z-order. A
// Track captures such a layout as an ordered sequence of coordinates; all
// algorithm packages address array element i through its track rather than
// hard-coding a layout.
package grid

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/zorder"
)

// Rect is an axis-aligned rectangle of PEs: H rows by W cols starting at
// Origin (inclusive).
type Rect struct {
	Origin machine.Coord
	H, W   int
}

// Square returns the square region of the given side at origin.
func Square(origin machine.Coord, side int) Rect {
	return Rect{Origin: origin, H: side, W: side}
}

// SquareFor returns a square region at origin large enough for n elements,
// where n must be a power of four (the paper's standing assumption).
func SquareFor(origin machine.Coord, n int) Rect {
	if !zorder.IsPow4(n) {
		panic(fmt.Sprintf("grid: SquareFor requires power-of-4 size, got %d", n))
	}
	return Square(origin, zorder.Sqrt(n))
}

// Pow2Side returns the smallest power-of-two side whose square holds at
// least n cells: the side of the padded square region every algorithm
// lays n elements out on (1 for n <= 1).
func Pow2Side(n int) int {
	side := 1
	for side*side < n {
		side *= 2
	}
	return side
}

// Size returns the number of PEs in the region.
func (r Rect) Size() int { return r.H * r.W }

// Diameter returns the largest Manhattan distance between two PEs of the
// region. Empty or degenerate regions (no PEs, or a single PE) have
// diameter 0 — without the clamp an H=0,W=0 rect would report −2.
func (r Rect) Diameter() int64 {
	if r.H <= 0 || r.W <= 0 {
		return 0
	}
	return int64(r.H - 1 + r.W - 1)
}

// Contains reports whether c lies inside the region.
func (r Rect) Contains(c machine.Coord) bool {
	return c.Row >= r.Origin.Row && c.Row < r.Origin.Row+r.H &&
		c.Col >= r.Origin.Col && c.Col < r.Origin.Col+r.W
}

// At returns the PE at relative position (row, col) inside the region.
func (r Rect) At(row, col int) machine.Coord {
	return machine.Coord{Row: r.Origin.Row + row, Col: r.Origin.Col + col}
}

// IsSquare reports whether the region is square.
func (r Rect) IsSquare() bool { return r.H == r.W }

func (r Rect) String() string {
	return fmt.Sprintf("[%dx%d @ %v]", r.H, r.W, r.Origin)
}

// Quadrants splits a square region of even side into its four quadrants in
// the paper's Z-order: top-left, top-right, bottom-left, bottom-right.
func (r Rect) Quadrants() [4]Rect {
	if !r.IsSquare() || r.H%2 != 0 {
		panic(fmt.Sprintf("grid: Quadrants of non-square or odd region %v", r))
	}
	s := r.H / 2
	return [4]Rect{
		Square(r.Origin, s),
		Square(r.Origin.Add(0, s), s),
		Square(r.Origin.Add(s, 0), s),
		Square(r.Origin.Add(s, s), s),
	}
}

// SplitFour splits a region of aspect ratio 1 or 2 (sides powers of two)
// into four congruent children of half the diameter, ordered so that
// concatenating the children's row-major tracks yields a locality-preserving
// curve over the region:
//
//   - a square splits into its quadrants (Z-order);
//   - a wide rectangle h x 2h splits into four vertical strips left to
//     right (each h x h/2);
//   - a tall rectangle 2h x h splits into four horizontal strips top to
//     bottom (each h/2 x h).
//
// This is the balanced quadrant decomposition used by the 2-D merge
// (DESIGN.md substitution 1): each child holds exactly Size()/4 cells and
// has at most half the parent's diameter.
func (r Rect) SplitFour() [4]Rect {
	switch {
	case r.IsSquare():
		return r.Quadrants()
	case r.W == 2*r.H:
		s := r.H / 2
		if s == 0 {
			panic(fmt.Sprintf("grid: SplitFour of too-small region %v", r))
		}
		return [4]Rect{
			{Origin: r.Origin, H: r.H, W: s},
			{Origin: r.Origin.Add(0, s), H: r.H, W: s},
			{Origin: r.Origin.Add(0, 2*s), H: r.H, W: s},
			{Origin: r.Origin.Add(0, 3*s), H: r.H, W: s},
		}
	case r.H == 2*r.W:
		s := r.W / 2
		if s == 0 {
			panic(fmt.Sprintf("grid: SplitFour of too-small region %v", r))
		}
		return [4]Rect{
			{Origin: r.Origin, H: s, W: r.W},
			{Origin: r.Origin.Add(s, 0), H: s, W: r.W},
			{Origin: r.Origin.Add(2*s, 0), H: s, W: r.W},
			{Origin: r.Origin.Add(3*s, 0), H: s, W: r.W},
		}
	default:
		panic(fmt.Sprintf("grid: SplitFour requires aspect ratio 1 or 2, got %v", r))
	}
}

// TopHalf and BottomHalf return the upper and lower h/2 x w halves.
func (r Rect) TopHalf() Rect    { return Rect{Origin: r.Origin, H: r.H / 2, W: r.W} }
func (r Rect) BottomHalf() Rect { return Rect{Origin: r.Origin.Add(r.H/2, 0), H: r.H - r.H/2, W: r.W} }

// RightOf returns a region of the given dimensions placed immediately to the
// right of r with a one-column gap, aligned to r's top row. Algorithms use
// it to allocate scratch subgrids (the machine's grid is unbounded).
func (r Rect) RightOf(h, w int) Rect {
	return Rect{Origin: r.Origin.Add(0, r.W+1), H: h, W: w}
}

// Below returns a region of the given dimensions placed immediately below r
// with a one-row gap, aligned to r's left column.
func (r Rect) Below(h, w int) Rect {
	return Rect{Origin: r.Origin.Add(r.H+1, 0), H: h, W: w}
}

// A Track is an ordered sequence of PE coordinates holding an array: element
// i of the array lives on PE At(i).
type Track interface {
	Len() int
	At(i int) machine.Coord
}

type rowMajorTrack struct{ r Rect }

func (t rowMajorTrack) Len() int { return t.r.Size() }
func (t rowMajorTrack) At(i int) machine.Coord {
	if i < 0 || i >= t.r.Size() {
		panic(fmt.Sprintf("grid: track index %d out of range [0,%d)", i, t.r.Size()))
	}
	return t.r.At(i/t.r.W, i%t.r.W)
}

// RowMajor returns the row-major track of a region.
func RowMajor(r Rect) Track { return rowMajorTrack{r} }

// TrackKind names a track constructor, so a layout choice can travel as
// data (mapping configs, cache keys, CLI flags) and be instantiated on a
// region only where the machine is at hand.
type TrackKind string

const (
	TrackRowMajor TrackKind = "rowmajor"
	TrackZOrder   TrackKind = "zorder"
	TrackHilbert  TrackKind = "hilbert"
)

// TrackKinds lists every kind TrackFor accepts, in canonical order.
func TrackKinds() []TrackKind {
	return []TrackKind{TrackRowMajor, TrackZOrder, TrackHilbert}
}

// Valid reports whether the kind names a known track constructor.
func (k TrackKind) Valid() bool {
	switch k {
	case TrackRowMajor, TrackZOrder, TrackHilbert:
		return true
	}
	return false
}

// SquareOnly reports whether the kind's constructor requires a square
// power-of-two region (the space-filling curves do; row-major does not).
func (k TrackKind) SquareOnly() bool { return k != TrackRowMajor }

// TrackFor instantiates the named track on r. It panics on an unknown kind
// or on a region the kind cannot serve (ZOrder and Hilbert require square
// power-of-two regions); callers enumerating layouts prune with Valid and
// SquareOnly first.
func TrackFor(k TrackKind, r Rect) Track {
	switch k {
	case TrackRowMajor:
		return RowMajor(r)
	case TrackZOrder:
		return ZOrder(r)
	case TrackHilbert:
		return Hilbert(r)
	}
	panic(fmt.Sprintf("grid: unknown track kind %q", k))
}

type zOrderTrack struct{ r Rect }

func (t zOrderTrack) Len() int { return t.r.Size() }
func (t zOrderTrack) At(i int) machine.Coord {
	if i < 0 || i >= t.r.Size() {
		panic(fmt.Sprintf("grid: track index %d out of range [0,%d)", i, t.r.Size()))
	}
	row, col := zorder.Decode(uint64(i))
	return t.r.At(row, col)
}

// ZOrder returns the Z-order (Morton) track of a square region whose side is
// a power of two.
func ZOrder(r Rect) Track {
	if !r.IsSquare() || !zorder.IsPow2(r.H) {
		panic(fmt.Sprintf("grid: ZOrder requires square power-of-two region, got %v", r))
	}
	return zOrderTrack{r}
}

type hilbertTrack struct{ r Rect }

func (t hilbertTrack) Len() int { return t.r.Size() }
func (t hilbertTrack) At(i int) machine.Coord {
	if i < 0 || i >= t.r.Size() {
		panic(fmt.Sprintf("grid: track index %d out of range [0,%d)", i, t.r.Size()))
	}
	row, col := zorder.HilbertDecode(t.r.H, uint64(i))
	return t.r.At(row, col)
}

// Hilbert returns the Hilbert-curve track of a square region whose side is
// a power of two — the layout ablation against ZOrder (unit-distance
// steps; no quadrant arithmetic).
func Hilbert(r Rect) Track {
	if !r.IsSquare() || !zorder.IsPow2(r.H) {
		panic(fmt.Sprintf("grid: Hilbert requires square power-of-two region, got %v", r))
	}
	return hilbertTrack{r}
}

type sliceTrack struct {
	t      Track
	off, n int
}

func (t sliceTrack) Len() int { return t.n }
func (t sliceTrack) At(i int) machine.Coord {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("grid: track index %d out of range [0,%d)", i, t.n))
	}
	return t.t.At(t.off + i)
}

// Slice returns the sub-track [off, off+n) of t.
func Slice(t Track, off, n int) Track {
	if off < 0 || n < 0 || off+n > t.Len() {
		panic(fmt.Sprintf("grid: Slice [%d,%d) out of range of track of length %d", off, off+n, t.Len()))
	}
	if off == 0 && n == t.Len() {
		return t
	}
	if s, ok := t.(sliceTrack); ok {
		return sliceTrack{s.t, s.off + off, n}
	}
	return sliceTrack{t, off, n}
}

type concatTrack struct {
	parts []Track
	total int
}

func (t concatTrack) Len() int { return t.total }
func (t concatTrack) At(i int) machine.Coord {
	if i < 0 || i >= t.total {
		panic(fmt.Sprintf("grid: track index %d out of range [0,%d)", i, t.total))
	}
	for _, p := range t.parts {
		if i < p.Len() {
			return p.At(i)
		}
		i -= p.Len()
	}
	panic("grid: unreachable")
}

// Concat returns the concatenation of the given tracks.
func Concat(parts ...Track) Track {
	total := 0
	flat := make([]Track, 0, len(parts))
	for _, p := range parts {
		if p.Len() == 0 {
			continue
		}
		total += p.Len()
		if c, ok := p.(concatTrack); ok {
			flat = append(flat, c.parts...)
		} else {
			flat = append(flat, p)
		}
	}
	return concatTrack{parts: flat, total: total}
}

type coordTrack []machine.Coord

func (t coordTrack) Len() int               { return len(t) }
func (t coordTrack) At(i int) machine.Coord { return t[i] }

// Coords returns a track over an explicit coordinate list.
func Coords(cs ...machine.Coord) Track { return coordTrack(cs) }

// Place stores vals[i] into register reg of track PE i and pad into the
// same register of every later PE of the track. It models initial input
// placement and is free (no messages).
func Place[T any](m *machine.Machine, t Track, reg machine.Reg, vals []T, pad T) {
	if len(vals) > t.Len() {
		panic(fmt.Sprintf("grid: placing %d values on track of length %d", len(vals), t.Len()))
	}
	for i := 0; i < t.Len(); i++ {
		v := pad
		if i < len(vals) {
			v = vals[i]
		}
		m.Set(t.At(i), reg, v)
	}
}

// Extract reads register reg of the first n track PEs, each of which must
// hold a T. It models reading the output and is free.
func Extract[T any](m *machine.Machine, t Track, reg machine.Reg, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = m.Get(t.At(i), reg).(T)
	}
	return out
}

// Clear frees register reg on the first n track PEs.
func Clear(m *machine.Machine, t Track, reg machine.Reg, n int) {
	for i := 0; i < n; i++ {
		m.Del(t.At(i), reg)
	}
}

// Route sends the value in register srcReg of src.At(i) to register dstReg
// of dst.At(perm[i]) for every i, freeing the source registers. perm must be
// a permutation of [0, src.Len()) when src and dst overlap; with disjoint
// tracks any mapping is allowed. Each element travels directly (one
// message), so the energy is the sum of Manhattan source-destination
// distances — the primitive underlying Lemma V.1's permutation bound.
func Route(m *machine.Machine, src Track, srcReg machine.Reg, dst Track, dstReg machine.Reg, perm []int) {
	vals := make([]machine.Value, len(perm))
	for i := range perm {
		vals[i] = m.Get(src.At(i), srcReg)
	}
	// Read everything before writing so overlapping src/dst tracks with
	// srcReg == dstReg behave as a simultaneous permutation, and issue all
	// messages in one parallel round so they are mutually independent.
	for i := range perm {
		m.Del(src.At(i), srcReg)
	}
	m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
		for i, j := range perm {
			send(src.At(i), dst.At(j), dstReg, vals[i])
		}
	})
}

// Identity returns the identity permutation of length n.
func Identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}
