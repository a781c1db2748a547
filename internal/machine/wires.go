package machine

import (
	"fmt"
	"sync"

	"repro/internal/fabric"
)

// Wires is the machine's counting kernel: a fixed list of distinct PEs
// (wires) exchanging counting-only messages whose pattern does not depend on
// the data — the compare-exchange levels of the sorting networks and the
// one-way tree levels of the scans, broadcasts and reduces. The wires'
// clocks are copied into one dense slice in wire order, so a message reads
// clocks that sit side by side for neighbouring wires instead of chasing PE
// structs scattered over tiles, and under a finite backend each wire's
// physical home is folded once, not per message. Until Close the copies and
// the kernel's counters are authoritative, so no other machine operation may
// run in between. Messages emit no trace event and deliver no register (see
// CountingOnly).
//
// The kernel counts energy and messages as it charges; the depth and
// distance maxima are read from the wires' clocks at Close. That is exact
// because every chain the kernel charges is merged into its receiver's
// clock, and no clock a wire starts from exceeds the machine's maxima. It
// is also what lets Fork charge from several goroutines: a lane needs only
// sums of its own.
//
// A machine owns one kernel, allocated at its first BindWires; later binds
// reuse its buffers, so at most one kernel is open at a time and Reset
// closes one that a panic left open.
type Wires struct {
	m     *Machine
	bk    Backend
	fab   fabric.Fabric
	cong  *fabric.Links
	cs    []Coord // the bound coordinates
	pes   []*pe
	clk   []clock
	homes []Coord // physical homes; cs itself under Ideal
	fold  []Coord // the reusable buffer homes uses under a finite backend
	acc   chargeAccum
	open  bool
	lanes []Lane // Fork's lanes, reused across forks
	wg    sync.WaitGroup
}

// BindWires binds the machine's counting kernel to the PEs at cs: wire i is
// cs[i]. Every PE is resolved (and touched) and journaled in any active
// Independent branch, exactly as a message endpoint would be. The wires must
// be distinct PEs; a repeated coordinate is a caller bug and panics, and so
// does binding while the kernel is open. The kernel keeps cs, so cs must
// not change before Close.
func (m *Machine) BindWires(cs []Coord) *Wires {
	w := m.wires
	if w == nil {
		w = &Wires{m: m}
		m.wires = w
	}
	if w.open {
		panic("machine: BindWires while a Wires kernel is open")
	}
	n := len(cs)
	w.bk, w.fab, w.cong, w.acc = m.bk, m.bk.fab(), m.cong, chargeAccum{}
	w.cs, w.pes, w.clk, w.homes = cs, resize(w.pes, n), resize(w.clk, n), cs
	if m.bk.Finite() {
		w.fold = resize(w.fold, n)
		w.homes = w.fold
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
		m.noteTouch(p)
		w.pes[i], w.clk[i] = p, p.clk
		if m.bk.Finite() {
			w.homes[i] = m.bk.Fold(c)
		}
	}
	w.open = true
	return w
}

// resize returns s with length n, reusing its backing array when it is
// large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Pair is one compare-exchange between wires I and J of a Wires kernel.
type Pair struct{ I, J int }

// Exchange charges one level of compare-exchanges: for each pair p, the two
// counting-only messages between wires off+p.I and off+p.J of one parallel
// round, each extending its sender's chain as of the start of the level.
// The pairs must be vertex-disjoint, which is what defines a
// sorting-network level: then no exchange reads a clock another one of the
// level has advanced. off is the first wire of the track the level runs
// on, so one level serves every track of a fused run.
func (w *Wires) Exchange(off int, level []Pair) {
	w.acc.energy += w.exchange(off, level)
	w.acc.messages += 2 * int64(len(level))
}

// exchange merges the chains of Exchange's messages into their receivers'
// clocks and returns the messages' energy. The loop of the plain grid
// calls nothing, so its values stay in registers; a torus or congestion
// tracking takes the loop that routes each message.
func (w *Wires) exchange(off int, level []Pair) int64 {
	if w.bk.Kind == BackendTorus || w.cong != nil {
		return w.exchangeRouted(off, level)
	}
	homes := w.homes
	clk := w.clk[:len(homes)] // one length, so clk needs no bounds check of its own
	var energy int64
	for _, p := range level {
		i, j := off+p.I, off+p.J
		d := Dist(homes[i], homes[j])
		ci, cj := &clk[i], &clk[j]
		fromI, fromJ := *ci, *cj
		energy += 2 * d
		ci.merge(fromJ.depth+1, fromJ.dist+d)
		cj.merge(fromI.depth+1, fromI.dist+d)
	}
	return energy
}

// exchangeRouted is exchange with each distance taken from route.
func (w *Wires) exchangeRouted(off int, level []Pair) int64 {
	homes := w.homes
	clk := w.clk[:len(homes)]
	var energy int64
	for _, p := range level {
		i, j := off+p.I, off+p.J
		d := w.route(homes[i], homes[j])
		ci, cj := &clk[i], &clk[j]
		fromI, fromJ := *ci, *cj
		energy += 2 * d
		ci.merge(fromJ.depth+1, fromJ.dist+d)
		cj.merge(fromI.depth+1, fromI.dist+d)
	}
	return energy
}

// Lane is one goroutine's share of a Wires kernel during Fork: it charges
// exchanges into counters of its own, which Fork adds to the kernel's at
// the join. Each lane sits alone on a cache line, so lanes that count at
// once do not contend for one.
type Lane struct {
	w      *Wires
	index  int
	energy int64
	pairs  int64
	_      [64 - 32]byte
}

// Index returns the lane's number, from 0 to Fork's k-1.
func (l *Lane) Index() int { return l.index }

// Exchange is Wires.Exchange charged to the lane.
func (l *Lane) Exchange(off int, level []Pair) {
	l.energy += l.w.exchange(off, level)
	l.pairs += int64(len(level))
}

// Lanes returns how many lanes Fork may charge from at once: the machine's
// shard count (SetShards), or 1 under congestion tracking, whose link
// loads every message of every lane would update.
func (w *Wires) Lanes() int {
	if w.cong != nil {
		return 1
	}
	return w.m.Shards()
}

// Fork calls f with each of k lanes at once, lane 0 on the calling
// goroutine and the others on goroutines of their own, and returns when
// all have returned, with the lanes' energy and message counts added to
// the kernel's. At k = 1 f runs on the caller alone and no goroutine
// starts. The lanes of one Fork must exchange on pairwise disjoint
// wires and use nothing else of the kernel. Then every wire's clock has one
// writer, which merges the wire's chains in the order a sequential run
// would; energy and messages are sums; and the maxima are read from the
// clocks at Close. So every clock and cost is the same for every k and
// every split of the wires among the lanes. k above Lanes() is allowed but
// gains nothing.
func (w *Wires) Fork(k int, f func(l *Lane)) {
	k = max(k, 1)
	w.lanes = resize(w.lanes, k)
	for i := range w.lanes {
		w.lanes[i] = Lane{w: w, index: i}
	}
	w.wg.Add(k - 1)
	for i := 1; i < k; i++ {
		go func(l *Lane) {
			defer w.wg.Done()
			f(l)
		}(&w.lanes[i])
	}
	func() {
		defer w.wg.Wait() // a panic on lane 0 leaves no lane running
		f(&w.lanes[0])
	}()
	for _, l := range w.lanes {
		w.acc.energy += l.energy
		w.acc.messages += 2 * l.pairs
	}
}

// route returns the distance between homes a and b under a torus or with
// congestion tracking, walking the link loads of both messages a->b and
// b->a when tracking is on.
func (w *Wires) route(a, b Coord) int64 {
	if w.cong != nil {
		w.cong.Walk(w.fab, fabric.Coord(a), fabric.Coord(b))
		w.cong.Walk(w.fab, fabric.Coord(b), fabric.Coord(a))
	}
	return w.bk.homeDist(a, b)
}

// Send charges one counting-only message from wire i to wire j, extending
// the sender's current chain and merging it into the receiver: the clock
// semantics of SendValue without the register. A send from a wire to itself
// is free local computation. Consecutive sends form one parallel round
// exactly when no charged sender of the round is also one of its receivers,
// which holds for every level of the tree collectives.
func (w *Wires) Send(i, j int) {
	if i == j {
		return
	}
	a, b := w.homes[i], w.homes[j]
	d := w.bk.homeDist(a, b)
	if w.cong != nil {
		w.cong.Walk(w.fab, fabric.Coord(a), fabric.Coord(b))
	}
	src := w.clk[i]
	w.acc.energy += d
	w.acc.messages++
	w.clk[j].merge(src.depth+1, src.dist+d)
}

// Load reads register reg of every wire into vals, which must hold one
// value per wire, as Get would: a wire without reg panics. The register
// files are reached through the bound PEs, with no grid lookup.
func (w *Wires) Load(reg Reg, vals []Value) {
	id, ok := w.m.regIDLookup(reg)
	for i, p := range w.pes {
		v, found := p.lookup(id)
		if !ok || !found {
			panic(fmt.Sprintf("machine: read from empty register %q of %v", reg, w.cs[i]))
		}
		vals[i] = v
	}
}

// Store writes vals[i] into register reg of wire i, as Set would.
func (w *Wires) Store(reg Reg, vals []Value) {
	id := w.m.regID(reg)
	for i, p := range w.pes {
		if p.set(id, vals[i]) {
			w.m.physGrow(w.cs[i])
		}
		w.m.noteMem(w.cs[i], p)
	}
}

// Close writes the wires' clocks back to their PEs, adds the kernel's costs
// to the machine (the depth and distance maxima read from the clocks) and
// closes the kernel; it must not be used until the next BindWires.
func (w *Wires) Close() {
	var top clock
	for i, p := range w.pes {
		c := w.clk[i]
		p.clk = c
		top.merge(c.depth, c.dist)
	}
	w.acc.maxDepth, w.acc.maxDist = top.depth, top.dist
	w.m.acc.merge(w.acc)
	w.close()
}

// close releases the kernel without writing anything back.
func (w *Wires) close() {
	w.cs, w.homes = nil, nil
	w.open = false
}

// SetBatchSends admits the counting-only fast path: with it on, algorithms
// with data-oblivious communication (the sorting networks, the scans and
// the selection's predecessor counts) may charge it through the Wires
// kernel when no trace sink or memory limit is attached (see CountingOnly).
// The flag changes no cost semantics by itself and survives Reset.
func (m *Machine) SetBatchSends(on bool) { m.batchSends = on }

// BatchSends reports whether SetBatchSends admitted the counting-only path.
func (m *Machine) BatchSends() bool { return m.batchSends }

// CountingOnly reports whether algorithms may charge data-oblivious
// communication through the counting kernel (Wires) and keep payloads
// host-side: SetBatchSends admitted the path, no trace sink is attached
// (counting-only messages carry no payload to trace), and no per-PE memory
// limit is set (host-side payloads would hide register pressure from the
// limit). Energy, Depth, Distance, Messages and TouchedPEs are identical
// either way; only PeakMemory reflects the skipped register traffic.
func (m *Machine) CountingOnly() bool {
	return m.batchSends && m.sink == nil && m.memLimit == 0
}
