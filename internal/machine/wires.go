package machine

import (
	"fmt"

	"repro/internal/fabric"
)

// Wires is a counting kernel bound to the wires of a sorting network: a
// fixed list of distinct PEs exchanging counting-only messages level after
// level. Their clocks are copied into one dense slice in wire order, so an
// exchange reads two clocks that sit side by side for neighbouring wires
// instead of chasing two PE structs scattered over tiles, and under a finite
// backend each wire's physical home is folded once, not per message. Until
// Close the copies and the kernel's counters are authoritative, so no other
// machine operation may run in between. Exchanges emit no trace event and
// deliver no register (see CountingOnly).
type Wires struct {
	m     *Machine
	bk    Backend
	fab   fabric.Fabric
	cong  *fabric.Links
	pes   []*pe
	clk   []clock
	homes []Coord // physical homes; the bound coordinates themselves under Ideal
	acc   chargeAccum
}

// BindWires binds a counting kernel to the PEs at cs: wire i is cs[i]. Every
// PE is resolved (and touched) and journaled in any active Independent
// branch, exactly as a message endpoint would be. The wires must be distinct
// PEs; a repeated coordinate is a caller bug and panics. Under Ideal the
// kernel keeps cs as the wire homes, so cs must not change before Close.
func (m *Machine) BindWires(cs []Coord) *Wires {
	w := &Wires{m: m, bk: m.bk, fab: m.bk.fab(), cong: m.cong, pes: make([]*pe, len(cs)), clk: make([]clock, len(cs)), homes: cs}
	if m.bk.Finite() {
		w.homes = make([]Coord, len(cs))
	}
	// A fresh stamp marks the PEs bound so far.
	m.wireStamp++
	stamp := m.wireStamp
	for i, c := range cs {
		p := m.peAt(c)
		if p.wireSeen == stamp {
			panic(fmt.Sprintf("machine: BindWires: %v is bound to two wires", c))
		}
		p.wireSeen = stamp
		m.noteTouch(c, p)
		w.pes[i], w.clk[i] = p, p.clk
		if m.bk.Finite() {
			w.homes[i] = m.bk.Fold(c)
		}
	}
	return w
}

// Exchange charges one compare-exchange between wires i != j: the two
// counting-only messages i->j and j->i of one parallel round, each extending
// its sender's chain as of the start of the exchange. Consecutive exchanges
// form one round only if they are vertex-disjoint, which is what defines a
// sorting-network level.
func (w *Wires) Exchange(i, j int) {
	a, b := w.homes[i], w.homes[j]
	d := w.bk.homeDist(a, b)
	if w.cong != nil {
		w.cong.Walk(w.fab, fabric.Coord(a), fabric.Coord(b))
		w.cong.Walk(w.fab, fabric.Coord(b), fabric.Coord(a))
	}
	ci, cj := &w.clk[i], &w.clk[j]
	toJ, toI := w.acc.add(*ci, d), w.acc.add(*cj, d)
	ci.merge(toI.depth, toI.dist)
	cj.merge(toJ.depth, toJ.dist)
}

// Close writes the wires' clocks back to their PEs and adds the exchanges'
// costs to the machine. The kernel must not be used afterwards.
func (w *Wires) Close() {
	for i, p := range w.pes {
		p.clk = w.clk[i]
	}
	w.m.acc.merge(w.acc)
}

// SetBatchSends admits the counting-only fast path: with it on, algorithms
// with data-oblivious communication (the sorting networks) may charge it
// through a Wires kernel when no trace sink or memory limit is attached
// (see CountingOnly). The flag changes no cost semantics by itself and
// survives Reset.
func (m *Machine) SetBatchSends(on bool) { m.batchSends = on }

// BatchSends reports whether SetBatchSends admitted the counting-only path.
func (m *Machine) BatchSends() bool { return m.batchSends }

// CountingOnly reports whether algorithms may charge data-oblivious
// communication through a counting kernel (Wires) that keeps payloads
// host-side: SetBatchSends admitted the path, no trace sink is attached
// (counting-only messages carry no payload to trace), and no per-PE memory
// limit is set (host-side payloads would hide register pressure from the
// limit). Energy, Depth, Distance, Messages and TouchedPEs are identical
// either way; only PeakMemory reflects the skipped register traffic.
func (m *Machine) CountingOnly() bool {
	return m.batchSends && m.sink == nil && m.memLimit == 0
}
