package core

import (
	"repro/internal/collectives"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/order"
)

// Registers a keyed collection keeps beside its records. KeyedHead and
// KeyedVal outlive the step that sets them; the caller reads them and
// deletes them once it is done.
const (
	KeyedHead machine.Reg = "keyed.head" // segment-head flag, set by ElectHeads
	KeyedVal  machine.Reg = "keyed.val"  // the value Fetch fills and Scan combines

	keyedPrev machine.Reg = "keyed.prev" // predecessor's key, inside ElectHeads
	keyedReq  machine.Reg = "keyed.req"  // a leader's request at the fetched cell, inside Fetch
	keyedNext machine.Reg = "keyed.next" // successor's head flag, inside DeliverLast
)

// Keyed is a keyed collection: one record per PE of a square power-of-two
// region, held in one register and laid out along a track. Its steps are
// the pipeline of the paper's concurrent read and write (the CRCW
// simulation of Lemma VII.2) and of the direct SpMV (Theorem VIII.2): sort
// the records by key, elect one leader per key, let each leader fetch a
// cell and spread the value over its segment with a segmented scan, then
// combine each segment and deliver the total from its last position.
//
// The steps set no trace phase: the caller labels them as its algorithm
// reads. Each step drops its own scratch registers before it returns,
// except KeyedHead and KeyedVal; since PeakMemory counts co-resident
// registers, every set and delete happens in the order a caller's
// hand-written rounds had it.
type Keyed struct {
	m    *machine.Machine
	r    grid.Rect
	kind grid.TrackKind
	t    grid.Track
	rec  machine.Reg
}

// NewKeyed returns the collection whose records are register rec of the
// PEs of r, laid out along the track of the given kind. r must be a square
// power-of-two region.
func NewKeyed(m *machine.Machine, r grid.Rect, kind grid.TrackKind, rec machine.Reg) *Keyed {
	return &Keyed{m: m, r: r, kind: kind, t: grid.TrackFor(kind, r), rec: rec}
}

// Sort sorts the records by less with the 2-D mergesort and routes rank i
// to track position i (SortToTrack).
func (k *Keyed) Sort(less order.Less) {
	SortToTrack(k.m, k.r, k.rec, k.t, k.rec, less)
}

// ElectHeads sets KeyedHead at every track position whose key differs
// from its predecessor's ("each processor sends its index to the next
// processor in the sequence; if the received index differs from its own or
// no message is received, it becomes a leader"): one round of
// neighbour messages carrying the keys.
func (k *Keyed) ElectHeads(key func(rec machine.Value) int64) {
	m, t, n := k.m, k.t, k.t.Len()
	m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
		for i := 0; i+1 < n; i++ {
			send(t.At(i), t.At(i+1), keyedPrev, key(m.Get(t.At(i), k.rec)))
		}
	})
	for i := 0; i < n; i++ {
		c := t.At(i)
		head := true
		if i > 0 {
			head = m.Get(c, keyedPrev).(int64) != key(m.Get(c, k.rec))
			m.Del(c, keyedPrev)
		}
		m.Set(c, KeyedHead, head)
	}
}

// Fetch lets every leader read register srcReg of the cell src names for
// its record (ok=false: the record names none) with a request round and a
// reply round into KeyedVal, fills KeyedVal with identity everywhere else,
// and spreads each leader's value over its segment with a segmented
// First-scan. The cell drops the request as it replies.
func (k *Keyed) Fetch(src func(rec machine.Value) (machine.Coord, bool), srcReg machine.Reg, identity machine.Value) {
	m, t, n := k.m, k.t, k.t.Len()
	source := func(c machine.Coord) (machine.Coord, bool) {
		if !m.Get(c, KeyedHead).(bool) {
			return machine.Coord{}, false
		}
		return src(m.Get(c, k.rec))
	}
	m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
		for i := 0; i < n; i++ {
			if cell, ok := source(t.At(i)); ok {
				send(t.At(i), cell, keyedReq, i)
			}
		}
	})
	m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
		for i := 0; i < n; i++ {
			if cell, ok := source(t.At(i)); ok {
				send(cell, t.At(i), KeyedVal, m.Get(cell, srcReg))
				m.Del(cell, keyedReq)
			}
		}
	})
	for i := 0; i < n; i++ {
		if c := t.At(i); !m.Has(c, KeyedVal) {
			m.Set(c, KeyedVal, identity)
		}
	}
	k.Scan(collectives.First, identity)
}

// Scan runs the segmented scan of KeyedVal under op over the segments
// KeyedHead marks, in track order: the energy-optimal quadtree scan on the
// Z-order track, the tree scan along any other track.
func (k *Keyed) Scan(op collectives.Op, identity machine.Value) {
	if k.kind == grid.TrackZOrder {
		collectives.SegmentedScan(k.m, k.r, KeyedVal, KeyedHead, op, identity)
		return
	}
	collectives.SegmentedScanTrack(k.m, k.t, KeyedVal, KeyedHead, op, identity)
}

// DeliverLast sends KeyedVal from the last position of every segment — the
// position whose successor is a head, and the final position — to register
// dstReg of the PE dst names for its record (ok=false: no delivery). Every
// position first learns its successor's head flag in one round.
func (k *Keyed) DeliverLast(dst func(rec machine.Value) (machine.Coord, bool), dstReg machine.Reg) {
	m, t, n := k.m, k.t, k.t.Len()
	m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
		for i := 1; i < n; i++ {
			send(t.At(i), t.At(i-1), keyedNext, m.Get(t.At(i), KeyedHead))
		}
	})
	m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
		for i := 0; i < n; i++ {
			c := t.At(i)
			if i+1 < n && !m.Get(c, keyedNext).(bool) {
				continue
			}
			if to, ok := dst(m.Get(c, k.rec)); ok {
				send(c, to, dstReg, m.Get(c, KeyedVal))
			}
		}
	})
	grid.Clear(m, t, keyedNext, n)
}
