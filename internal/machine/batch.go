package machine

import (
	"fmt"

	"repro/internal/fabric"
)

// Batched rounds.
//
// A Batch is the machine's hot-path send API: algorithms record the messages
// of one parallel round up front, then Flush charges and delivers them all at
// once. Recording is a plain slice append, so the per-message overhead of the
// round (tile lookups, clock snapshots, sink checks) is paid in two tight
// passes over the buffer instead of per send. The semantics are exactly those
// of Par: every message extends its sender's chain as of the start of the
// round, deliveries are applied in issue order (later wins on a register
// collision), and a send from a PE to itself is free local computation.
//
// The split into a record pass, a charge pass and a delivery pass is also
// what makes sharded execution possible: because no delivery is applied until
// every message has been charged, the sender clocks read during the charge
// pass are the start-of-round clocks by construction — no per-PE snapshot
// stamping is needed — and the charge and delivery passes can each be
// partitioned across shards (see shard.go).

// bmsg is one recorded message of a batched or Par round. clk, the
// message's chain, is filled in by the charge pass and consumed by the
// delivery pass.
type bmsg struct {
	from, to Coord
	clk      clock
	v        Value
	dst      regID
}

// Batch accumulates the messages of one parallel round. Obtain it with
// Machine.Round (or the SendBatch convenience wrapper), record messages with
// Send, and close the round with Flush. The machine owns a single
// reusable batch, so rounds do not allocate in steady state; batched rounds
// cannot nest, and the recording callbacks must not invoke Par, Independent
// or any other machine operation that sends.
type Batch struct {
	m    *Machine
	msgs []bmsg
	open bool
}

// Round opens the machine's batched round and returns its buffer. The round
// is not charged until Flush. Round panics if a round is already open:
// batched rounds, like Par rounds, do not nest.
func (m *Machine) Round() *Batch {
	if m.batch.open {
		panic("machine: Round called while a batched round is open")
	}
	m.batch.open = true
	m.batch.msgs = m.batch.msgs[:0]
	return &m.batch
}

// SendBatch records one parallel round through the callback and flushes it:
//
//	m.SendBatch(func(b *machine.Batch) {
//	    for _, e := range edges {
//	        b.Send(e.src, e.dst, "v", vals[e.i])
//	    }
//	})
//
// It is the batched equivalent of Par and the preferred form for bulk rounds.
func (m *Machine) SendBatch(round func(b *Batch)) {
	b := m.Round()
	round(b)
	b.Flush()
}

// Send records one message of the round: v, a value computed locally at
// from, is delivered into register dstReg of to when the round flushes. The
// cost semantics match SendValue inside a Par round.
func (b *Batch) Send(from, to Coord, dstReg Reg, v Value) {
	if !b.open {
		panic("machine: Send on a flushed Batch")
	}
	b.msgs = append(b.msgs, bmsg{from: from, to: to, v: v, dst: b.m.regID(dstReg)})
}

// Flush closes the round: all recorded messages are charged against the
// start-of-round sender clocks, then delivered in issue order. After Flush
// the batch must not be used until the next Round.
func (b *Batch) Flush() {
	if !b.open {
		panic("machine: Flush on a flushed Batch")
	}
	b.open = false
	m := b.m
	m.processRound(b.msgs)
	for i := range b.msgs {
		b.msgs[i].v = nil // release payload references until the next round
	}
	b.msgs = b.msgs[:0]
}

// processRound executes one recorded round: sequentially, or shard-parallel
// when sharding is enabled and the round is large enough to amortize the
// fork/join (see shard.go). Both paths produce byte-identical counters,
// clocks and register state. Under a finite backend rounds stay sequential:
// the physical co-residency peak of a folded fabric depends on the issue
// order of register writes across the whole round, which per-shard delivery
// does not preserve.
func (m *Machine) processRound(msgs []bmsg) {
	if m.shards > 1 && len(msgs) >= m.shardMin && m.physCnt == nil {
		m.processSharded(msgs)
		return
	}
	m.chargeRound(msgs)
	m.deliverRound(msgs)
}

// chargeRound is the sequential charge pass. No clock is mutated until the
// delivery pass, so the sender clocks it reads are start-of-round values.
func (m *Machine) chargeRound(msgs []bmsg) {
	for i := range msgs {
		g := &msgs[i]
		if g.from == g.to {
			g.clk = clock{} // free local computation
			continue
		}
		g.clk = m.charge(g.from, g.to, m.peAt(g.from).clk, g.v)
	}
}

// deliverRound is the sequential delivery pass, in issue order.
func (m *Machine) deliverRound(msgs []bmsg) {
	for i := range msgs {
		g := &msgs[i]
		m.deliver(g.to, g.clk, g.dst, g.v)
	}
}

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
	// A fresh Par round stamp marks the PEs bound so far; Par itself never
	// reuses a stamp, so this leaves its clock snapshots valid.
	m.parRound++
	stamp := m.parRound
	for i, c := range cs {
		p := m.peAt(c)
		if p.snapSeen == stamp {
			panic(fmt.Sprintf("machine: BindWires: %v is bound to two wires", c))
		}
		p.snapSeen = stamp
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

// SetBatchSends marks the machine as driven through the batched send API,
// allowing algorithms with data-oblivious communication to take the
// counting-only fast path (see CountingOnly). The flag changes no cost
// semantics by itself and survives Reset.
func (m *Machine) SetBatchSends(on bool) { m.batchSends = on }

// BatchSends reports whether SetBatchSends enabled the batched-send mode.
func (m *Machine) BatchSends() bool { return m.batchSends }

// CountingOnly reports whether algorithms may charge data-oblivious
// communication through a counting kernel (Wires) that keeps payloads
// host-side: batched-send mode is on, no trace sink is attached
// (counting-only messages carry no payload to trace), and no per-PE memory
// limit is set (host-side payloads would hide register pressure from the
// limit). Energy, Depth, Distance, Messages and TouchedPEs are identical
// either way; only PeakMemory reflects the skipped register traffic.
func (m *Machine) CountingOnly() bool {
	return m.batchSends && m.sink == nil && m.memLimit == 0
}
