package collectives

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/zorder"
)

// Scan computes the inclusive prefix combination of the array stored in
// Z-order in register reg on the square region r, in place: after the call,
// the PE at Z-order position i holds op(A_0, ..., A_i). It returns the total
// op(A_0, ..., A_{n-1}).
//
// This is the energy-optimal scan of Section IV-C: an up-sweep computes
// partial sums along a 4-ary summation tree over the grid's quadrants (the
// root of a height-i subtree is held by the i-th PE in Z-order of the
// subtree's quadrant), and a down-sweep pushes exclusive prefixes back down
// the same tree. Costs (Lemma IV.3): O(n) energy, O(log n) depth, O(sqrt n)
// distance. op must be associative; identity must satisfy
// op(identity, x) = x.
func Scan(m *machine.Machine, r grid.Rect, reg machine.Reg, op Op, identity machine.Value) machine.Value {
	if !r.IsSquare() || !zorder.IsPow2(r.H) {
		panic(fmt.Sprintf("collectives: Scan requires square power-of-two region, got %v", r))
	}
	height := zorder.Log2(r.H)
	upsweep(m, r, height, reg, op)
	root := scanHolder(r, height)
	total := m.Get(root, sumReg(height))
	m.Set(root, downReg(height), identity)
	downsweep(m, r, height, reg, op)
	return total
}

// Register names used by the scan's summation tree are qualified by tree
// height because one PE can hold internal nodes of two different heights
// (e.g. the cell at Z-index 1 of its 2x2 block is also Z-index 5 of its
// 32x32 block). A PE holds at most two node roles for any feasible grid (a
// third would need side >= 2^1029), so the working set stays O(1).
func sumReg(k int) machine.Reg      { return scanRegs[k][0] }
func downReg(k int) machine.Reg     { return scanRegs[k][1] }
func childReg(k, i int) machine.Reg { return scanRegs[k][2+i] }

// scanRegs holds the register names of each tree height, built once:
// formatting them at every tree node took half the CPU time of a large scan.
// 62 is the largest height, since an int side is at most 2^62.
var scanRegs = func() (t [63][6]machine.Reg) {
	for k := range t {
		t[k] = [6]machine.Reg{fmt.Sprintf("scan.sum%d", k), fmt.Sprintf("scan.down%d", k)}
		for i := 0; i < 4; i++ {
			t[k][2+i] = fmt.Sprintf("scan.s%d.%d", k, i)
		}
	}
	return t
}()

// scanHolder returns the PE holding the root of the height-k summation
// subtree of subgrid sub: the k-th PE of sub in Z-order.
func scanHolder(sub grid.Rect, k int) machine.Coord {
	if k == 0 {
		return sub.Origin
	}
	return grid.ZOrder(sub).At(k)
}

func upsweep(m *machine.Machine, sub grid.Rect, k int, reg machine.Reg, op Op) {
	if k == 0 {
		m.Set(sub.Origin, sumReg(0), m.Get(sub.Origin, reg))
		return
	}
	q := sub.Quadrants()
	for i := 0; i < 4; i++ {
		upsweep(m, q[i], k-1, reg, op)
	}
	p := scanHolder(sub, k)
	// The four child-root sums travel to p as one Par round: the sends
	// originate at four distinct PEs and none depends on another, so the
	// round is equivalent to four singleton sends.
	m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
		for i := 0; i < 4; i++ {
			send(scanHolder(q[i], k-1), p, childReg(k, i), m.Get(scanHolder(q[i], k-1), sumReg(k-1)))
		}
	})
	for i := 0; i < 4; i++ {
		m.Del(scanHolder(q[i], k-1), sumReg(k-1))
	}
	acc := m.Get(p, childReg(k, 0))
	for i := 1; i < 4; i++ {
		acc = op(acc, m.Get(p, childReg(k, i)))
	}
	m.Set(p, sumReg(k), acc)
}

// downsweep assumes the holder of sub has received the exclusive prefix for
// the subtree in downReg(k). It distributes prefixes to the quadrants and,
// at the leaves, combines them with the array elements in place.
func downsweep(m *machine.Machine, sub grid.Rect, k int, reg machine.Reg, op Op) {
	p := scanHolder(sub, k)
	x := m.Get(p, downReg(k))
	m.Del(p, downReg(k))
	if k == 0 {
		m.Set(p, reg, op(x, m.Get(p, reg)))
		m.Del(p, sumReg(0)) // only live when the whole scan is a single PE
		return
	}
	m.Del(p, sumReg(k))
	q := sub.Quadrants()
	// The four prefix pushes all originate at p and are mutually
	// independent, so they form one Par round; the exclusive prefixes are
	// accumulated host-side first, exactly as the singleton sends did.
	var xs [4]machine.Value
	for i := 0; i < 4; i++ {
		xs[i] = x
		if i < 3 {
			x = op(x, m.Get(p, childReg(k, i)))
		}
		m.Del(p, childReg(k, i))
	}
	m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
		for i := 0; i < 4; i++ {
			send(p, scanHolder(q[i], k-1), downReg(k-1), xs[i])
		}
	})
	for i := 0; i < 4; i++ {
		downsweep(m, q[i], k-1, reg, op)
	}
}

// ScanTrack computes the inclusive prefix combination of the array stored at
// the positions of track t, in place, using the classic binary-tree
// (Blelloch) up-sweep/down-sweep over track indices. The track length must
// be a power of two.
//
// Over a row-major layout this is the naive 1-D scan baseline of Section
// IV-C with Theta(n log n) energy and O(log n) depth; over a single column
// it matches the 1-D tree bounds.
func ScanTrack(m *machine.Machine, t grid.Track, reg machine.Reg, op Op, identity machine.Value) machine.Value {
	n := t.Len()
	if !zorder.IsPow2(n) {
		panic(fmt.Sprintf("collectives: ScanTrack requires power-of-two length, got %d", n))
	}
	if n == 1 {
		return m.Get(t.At(0), reg)
	}
	// Keep the original elements so the exclusive result can be turned
	// into an inclusive one locally.
	for i := 0; i < n; i++ {
		c := t.At(i)
		m.Set(c, "scan.orig", m.Get(c, reg))
	}
	// Up-sweep: in-place partial sums, one register per PE.
	for d := 1; d < n; d *= 2 {
		m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
			for k := 0; k+2*d <= n; k += 2 * d {
				send(t.At(k+d-1), t.At(k+2*d-1), "scan.in", m.Get(t.At(k+d-1), reg))
			}
		})
		for k := 0; k+2*d <= n; k += 2 * d {
			c := t.At(k + 2*d - 1)
			m.Set(c, reg, op(m.Get(c, "scan.in"), m.Get(c, reg)))
			m.Del(c, "scan.in")
		}
	}
	total := m.Get(t.At(n-1), reg)
	m.Set(t.At(n-1), reg, identity)
	// Down-sweep: left child receives the parent prefix, right child
	// receives op(parent prefix, left subtree sum).
	for d := n / 2; d >= 1; d /= 2 {
		m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
			for k := 0; k+2*d <= n; k += 2 * d {
				l, rr := t.At(k+d-1), t.At(k+2*d-1)
				send(l, rr, "scan.t", m.Get(l, reg))
				send(rr, l, "scan.p", m.Get(rr, reg))
			}
		})
		for k := 0; k+2*d <= n; k += 2 * d {
			l, rr := t.At(k+d-1), t.At(k+2*d-1)
			m.Set(l, reg, m.Get(l, "scan.p"))
			m.Del(l, "scan.p")
			m.Set(rr, reg, op(m.Get(rr, reg), m.Get(rr, "scan.t")))
			m.Del(rr, "scan.t")
		}
	}
	// Convert the exclusive prefixes to inclusive ones locally.
	for i := 0; i < n; i++ {
		c := t.At(i)
		m.Set(c, reg, op(m.Get(c, reg), m.Get(c, "scan.orig")))
		m.Del(c, "scan.orig")
	}
	return total
}

// ScanSequential computes the inclusive prefix combination along track t
// with a sequential relay chain: O(sum of consecutive track distances)
// energy — Theta(n) on Z-order and row-major layouts — but Theta(n) depth.
// It is the "minimum energy, zero parallelism" baseline of Section IV-C.
func ScanSequential(m *machine.Machine, t grid.Track, reg machine.Reg, op Op) machine.Value {
	n := t.Len()
	for i := 1; i < n; i++ {
		prev, cur := t.At(i-1), t.At(i)
		m.Send(prev, reg, cur, "scan.prev")
		m.Set(cur, reg, op(m.Get(cur, "scan.prev"), m.Get(cur, reg)))
		m.Del(cur, "scan.prev")
	}
	return m.Get(t.At(n-1), reg)
}

// Seg is the element type of segmented scans: a value plus a flag marking
// the first element of a segment.
type Seg struct {
	Val  machine.Value
	Head bool
}

// Segmented lifts an associative operator to the segmented operator of
// Section IV-C ("for any associative operator, we can define a segmented
// associative operator that has the logic of the segments built-in"): a
// segment head absorbs everything to its left. The result is associative
// but not commutative.
func Segmented(op Op) Op {
	return func(a, b machine.Value) machine.Value {
		x, y := a.(Seg), b.(Seg)
		if y.Head {
			return y
		}
		return Seg{Val: op(x.Val, y.Val), Head: x.Head}
	}
}

// SegmentedScan computes, in place, inclusive per-segment prefix
// combinations of the array stored in Z-order in register reg on r, where a
// true value in register headReg marks the first element of each segment.
// Position 0 is treated as a segment head implicitly. Same costs as Scan.
func SegmentedScan(m *machine.Machine, r grid.Rect, reg, headReg machine.Reg, op Op, identity machine.Value) {
	t := grid.ZOrder(r)
	n := t.Len()
	for i := 0; i < n; i++ {
		c := t.At(i)
		head := i == 0
		if v, ok := m.Lookup(c, headReg); ok && v.(bool) {
			head = true
		}
		m.Set(c, reg, Seg{Val: m.Get(c, reg), Head: head})
	}
	Scan(m, r, reg, Segmented(op), Seg{Val: identity})
	for i := 0; i < n; i++ {
		c := t.At(i)
		m.Set(c, reg, m.Get(c, reg).(Seg).Val)
	}
}

// SegmentedScanTrack is SegmentedScan along an arbitrary track, realized
// with the binary-tree ScanTrack: the element order is the track's, so
// algorithms whose data is sorted along a non-Z-order curve (see
// spmv.MultiplyMapped) scan in the order they sorted in. Same costs as
// ScanTrack.
func SegmentedScanTrack(m *machine.Machine, t grid.Track, reg, headReg machine.Reg, op Op, identity machine.Value) {
	n := t.Len()
	for i := 0; i < n; i++ {
		c := t.At(i)
		head := i == 0
		if v, ok := m.Lookup(c, headReg); ok && v.(bool) {
			head = true
		}
		m.Set(c, reg, Seg{Val: m.Get(c, reg), Head: head})
	}
	ScanTrack(m, t, reg, Segmented(op), Seg{Val: identity})
	for i := 0; i < n; i++ {
		c := t.At(i)
		m.Set(c, reg, m.Get(c, reg).(Seg).Val)
	}
}
