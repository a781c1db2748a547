// Package machine implements the Spatial Computer Model as a cost-exact
// simulator.
//
// The model (Section III of the paper): an unbounded 2-D grid of processing
// elements (PEs), each with O(1) words of local memory. A message from
// p_{i,j} to p_{x,y} has distance |x-i| + |y-j| (Manhattan). The cost of a
// computation is measured by three metrics:
//
//   - Energy: the sum of the distances of all messages sent. It measures the
//     total load on the on-chip network.
//   - Depth: the longest chain of consecutively dependent messages. Low
//     depth means high parallelism.
//   - Distance: the largest total distance along any chain of dependent
//     messages. It measures the wire latency of the computation.
//
// Algorithms are expressed as sequences of Send operations. The machine
// maintains per-PE causality clocks tracking, for every PE, the longest
// dependent-message chain that ends there (independently by hop count and by
// summed distance). A message's chain extends the sender's clock; delivery
// merges it into the receiver's clock. Sends do not advance the sender's
// clock, so a PE can emit many mutually independent messages, matching the
// model's definition of dependent-message chains. Local computation is free:
// the model counts messages only.
//
// # Storage layout
//
// The grid is stored as fixed-size 16x16 tiles of contiguous PE structs in a
// map keyed by tile coordinate, with a one-entry tile cache in front of the
// map. The spatial locality of the algorithms (neighbor exchanges, subgrid
// recursions) means most consecutive accesses land in the same tile, so the
// common case is one shift/mask index computation instead of a map probe per
// PE. Register names are interned to small integer ids once per machine, so
// the per-PE register scan compares ints, not strings. Par and Independent
// reuse their round buffers across calls, making steady-state simulation
// allocation-free; Reset reuses the grid (and the per-PE register slices)
// across runs of a sweep.
//
// # Send paths
//
// Every send drives one per-message kernel: charge accounts a message
// against its sender's clock and mutates no clock, deliver applies it at
// the receiver. SendValue runs both at once. Par, the only round API,
// charges each message as it is issued and delivers the round when its
// callback returns, in issue order or, for large rounds on a sharded
// machine, split by destination tile across shards (shard.go). Wires, the
// sorting networks' counting kernel, is the one specialized path. The
// geometry of finite fabrics (the fold and the link walk) lives in package
// fabric, which the trace heatmap shares.
package machine

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fabric"
	"repro/internal/trace"
)

// Coord identifies the processing element p_{Row,Col} on the grid. The grid
// is unbounded in all four directions; negative coordinates are valid.
type Coord struct {
	Row, Col int
}

func (c Coord) String() string { return fmt.Sprintf("p(%d,%d)", c.Row, c.Col) }

// Add returns the coordinate offset by (dr, dc).
func (c Coord) Add(dr, dc int) Coord { return Coord{c.Row + dr, c.Col + dc} }

// Dist returns the Manhattan distance between two coordinates, which is the
// model's cost of sending one message between them.
func Dist(a, b Coord) int64 {
	return absInt64(a.Row-b.Row) + absInt64(a.Col-b.Col)
}

func absInt64(x int) int64 {
	// Widen before negating: int64(-x) overflows for math.MinInt32 on
	// 32-bit platforms, where -int64(x) is exact. On 64-bit platforms the
	// lone unrepresentable magnitude is -math.MinInt64; saturate it to
	// MaxInt64 so the distance stays non-negative.
	w := int64(x)
	if w < 0 {
		w = -w
		if w < 0 { // math.MinInt64
			w = math.MaxInt64
		}
	}
	return w
}

// Value is the payload of a message or register. Payloads must be
// word-sized: a scalar or a constant-size tuple (the model's messages carry
// O(1) words).
type Value = any

// Reg names a register in a PE's O(1)-sized register file.
type Reg = string

// regID is an interned register name. Interning happens once per (machine,
// name) pair; the per-PE register file stores ids so the hot-path scan is an
// integer compare.
type regID int32

// clock is the causality clock of a PE: the longest dependent-message chain
// ending at the PE, measured in hops (depth) and in summed Manhattan
// distance (dist). The two maxima may be achieved by different chains; both
// are exact per the model's definitions.
type clock struct {
	depth int64
	dist  int64
}

func (c *clock) merge(depth, dist int64) {
	if depth > c.depth {
		c.depth = depth
	}
	if dist > c.dist {
		c.dist = dist
	}
}

// regSlot is one named register. PEs hold O(1) registers, so the register
// file is a small slice scanned linearly with interned-id compares.
type regSlot struct {
	id regID
	v  Value
}

// pe is the state of one processing element. PEs live by value inside
// tiles; a nil-regs, untouched pe costs nothing beyond its tile slot.
type pe struct {
	regs    []regSlot
	clk     clock
	peakReg int
	// touched marks PEs that have held a value or participated in a
	// message; tiles allocate 256 PEs at a time, so membership cannot be
	// inferred from allocation.
	touched bool
	// wireSeen is the stamp of the last BindWires that bound this PE, which
	// finds a PE bound to two wires of one kernel.
	wireSeen uint64
	// indepSeen is the generation of the innermost active Independent
	// branch that has journaled this PE. Branch generations increase
	// monotonically down the stack, so the branches that have NOT seen the
	// PE are exactly the suffix of the stack with generation > indepSeen.
	indepSeen uint64
}

func (p *pe) lookup(id regID) (Value, bool) {
	for i := range p.regs {
		if p.regs[i].id == id {
			return p.regs[i].v, true
		}
	}
	return nil, false
}

// set stores v, reusing an existing slot when present. It reports whether
// the register file grew (a new slot was appended), which the finite
// backends use to maintain physical-PE occupancy counts.
func (p *pe) set(id regID, v Value) (grew bool) {
	for i := range p.regs {
		if p.regs[i].id == id {
			p.regs[i].v = v
			return false
		}
	}
	p.regs = append(p.regs, regSlot{id, v})
	return true
}

// del frees the register and reports whether a slot was actually removed.
func (p *pe) del(id regID) (removed bool) {
	for i := range p.regs {
		if p.regs[i].id == id {
			last := len(p.regs) - 1
			p.regs[i] = p.regs[last]
			p.regs[last] = regSlot{}
			p.regs = p.regs[:last]
			return true
		}
	}
	return false
}

// Tiles are 16x16: big enough that subgrid recursions stay within a handful
// of tiles, small enough that sparse access patterns don't waste memory.
const (
	tileShift = 4
	tileSide  = 1 << tileShift
	tileMask  = tileSide - 1
)

// tile is a dense block of 256 PEs. Arithmetic shift and two's-complement
// masking make the key/index math correct for negative coordinates too.
type tile struct {
	// touched counts this tile's touched PEs, letting Reset and
	// ResetClocks skip clean tiles entirely. Pooled machines recycled
	// across sweep points keep the tiles of their largest run, while most
	// points touch only a small region; the skip makes Reset proportional
	// to the area the last run actually used.
	touched int
	pes     [tileSide * tileSide]pe
}

func tileKey(c Coord) Coord {
	return Coord{c.Row >> tileShift, c.Col >> tileShift}
}

func tileIndex(c Coord) int {
	return (c.Row&tileMask)<<tileShift | (c.Col & tileMask)
}

// Metrics is a snapshot of the accumulated cost counters of a Machine.
type Metrics struct {
	// Energy is the total Manhattan distance travelled by all messages.
	Energy int64
	// Depth is the longest chain of dependent messages, in messages.
	Depth int64
	// Distance is the largest summed distance of any dependent chain.
	Distance int64
	// Messages is the total number of messages sent.
	Messages int64
	// PeakMemory is the largest number of registers simultaneously live on
	// any single PE. The model requires this to be O(1), i.e. independent
	// of the input size.
	PeakMemory int
}

// Sub returns the metrics accumulated between an earlier snapshot prev and
// this one. Depth, Distance and PeakMemory are absolute maxima and are
// returned as-is (use a fresh Machine to isolate a single computation).
func (m Metrics) Sub(prev Metrics) Metrics {
	return Metrics{
		Energy:     m.Energy - prev.Energy,
		Depth:      m.Depth,
		Distance:   m.Distance,
		Messages:   m.Messages - prev.Messages,
		PeakMemory: m.PeakMemory,
	}
}

func (m Metrics) String() string {
	return fmt.Sprintf("energy=%d depth=%d distance=%d messages=%d peakMem=%d",
		m.Energy, m.Depth, m.Distance, m.Messages, m.PeakMemory)
}

// Machine simulates the Spatial Computer Model. The zero value is not
// usable; construct with New.
type Machine struct {
	tiles map[Coord]*tile
	// One-entry tile cache: valid whenever last != nil. Tiles are never
	// removed (Reset zeroes them in place), so the cache needs no
	// invalidation.
	lastKey Coord
	last    *tile

	touched int // count of PEs with the touched bit set

	// Register interning: a tiny MRU cache in front of the map. Algorithms
	// address one or two registers in their hot loops ("v", a scratch), and
	// constant names from the same binary share backing arrays, so the
	// cache compare is usually a pointer compare.
	reg0Name, reg1Name Reg
	reg0ID, reg1ID     regID
	regIDs             map[string]regID
	regNames           []string

	// acc holds the energy and message counters and the depth/distance
	// maxima; charge adds to it.
	acc     chargeAccum
	peakMem int

	// memLimit, when positive, bounds the number of registers per PE;
	// exceeding it panics. Algorithms in the paper assume O(1) memory per
	// PE, and tests use the limit to enforce the contract.
	memLimit int

	// indepLogs is the stack of active Independent branches. Each journal
	// records, once per PE touched by the branch, the clock the PE had when
	// the branch first delivered to it, so the branch's clock effects can
	// be rolled back and merged at the join. indepGens holds the strictly
	// increasing generation of each active branch (see pe.indepSeen);
	// journalPool and logPool recycle the buffers.
	indepLogs   [][]indepEntry
	indepGens   []uint64
	indepGen    uint64
	journalPool [][]indepEntry
	logPool     []map[Coord]clock

	// round is Par's reusable buffer of charged, undelivered messages;
	// parOpen is set while a Par callback runs. parSend is the bound issue
	// method Par hands its callback, allocated once so Par stays
	// allocation-free. wireStamp numbers BindWires calls (see pe.wireSeen).
	round     []roundMsg
	parOpen   bool
	parSend   func(from, to Coord, dstReg Reg, v Value)
	wireStamp uint64

	// batchSends admits the counting-only fast path (see CountingOnly).
	batchSends bool

	// shards partitions the delivery of Par rounds of at least shardMin
	// messages across that many goroutines (see shard.go); sh holds the
	// executor's reusable buffers. Both settings survive Reset.
	shards   int
	shardMin int
	sh       shardScratch

	// cong, when non-nil, tracks per-link traffic (see congestion.go).
	cong *fabric.Links

	// bk is the cost backend (see backend.go): the ideal unbounded grid
	// (zero value), or a finite folded mesh/torus fabric. When finite,
	// physCnt counts the registers co-resident on each physical PE (dense
	// row-major W×H) and physPeak is the largest count ever reached. The
	// backend survives Reset; the occupancy counts are cleared.
	bk       Backend
	physCnt  []int32
	physPeak int

	// sink, when non-nil, receives one trace.Event per message sent; phase
	// is the current Phase annotation stamped onto emitted events. The
	// send fast paths pay a nil check only when tracing is disabled.
	sink  trace.Sink
	phase string
}

// New returns an empty machine with unlimited per-PE memory accounting
// (peaks are still recorded).
func New() *Machine {
	m := &Machine{
		tiles:    make(map[Coord]*tile),
		regIDs:   make(map[string]regID, 8),
		shardMin: defaultShardMin,
	}
	m.parSend = m.issue
	return m
}

// NewWithMemoryLimit returns a machine that panics if any PE ever holds more
// than limit registers. Use it in tests to certify the O(1)-memory contract.
func NewWithMemoryLimit(limit int) *Machine {
	m := New()
	m.memLimit = limit
	return m
}

// SetBackend selects the cost backend (see backend.go). It panics on an
// invalid backend. The setting survives Reset, so pooled machines keep
// their fabric across sweep points; pass Ideal() to restore the unbounded
// model. Switching backends mid-run is allowed — the physical occupancy
// counters are rebuilt from the live registers, and the physical peak
// restarts from the current occupancy.
//
// Finite backends deliver Par rounds sequentially even when SetShards has
// enabled sharding: the physical co-residency peak depends on the issue
// order of register writes across the whole round, which the
// shard-parallel delivery pass does not preserve.
func (m *Machine) SetBackend(b Backend) {
	b = b.normalize()
	if err := b.validate(); err != nil {
		panic(err)
	}
	m.bk = b
	m.physPeak = 0
	if !b.Finite() {
		m.physCnt = nil
		return
	}
	need := b.W * b.H
	if cap(m.physCnt) < need {
		m.physCnt = make([]int32, need)
	} else {
		m.physCnt = m.physCnt[:need]
		clear(m.physCnt)
	}
	// Rebuild occupancy from whatever is already live so SetBackend is
	// valid at any point, not just on an empty machine.
	for k, t := range m.tiles {
		if t.touched == 0 {
			continue
		}
		for i := range t.pes {
			p := &t.pes[i]
			if !p.touched || len(p.regs) == 0 {
				continue
			}
			c := Coord{Row: k.Row<<tileShift | i>>tileShift, Col: k.Col<<tileShift | i&tileMask}
			idx := b.physIndex(c)
			m.physCnt[idx] += int32(len(p.regs))
			if int(m.physCnt[idx]) > m.physPeak {
				m.physPeak = int(m.physCnt[idx])
			}
		}
	}
}

// Backend returns the machine's cost backend.
func (m *Machine) Backend() Backend { return m.bk }

// physGrow/physShrink maintain the per-physical-PE occupancy counts of a
// finite backend; both are no-ops under Ideal.
func (m *Machine) physGrow(c Coord) {
	if m.physCnt == nil {
		return
	}
	i := m.bk.physIndex(c)
	n := m.physCnt[i] + 1
	m.physCnt[i] = n
	if int(n) > m.physPeak {
		m.physPeak = int(n)
	}
}

func (m *Machine) physShrink(c Coord) {
	if m.physCnt == nil {
		return
	}
	m.physCnt[m.bk.physIndex(c)]--
}

// SetSink installs a trace sink receiving one trace.Event per message sent
// (nil removes it). The sink is invoked synchronously on the send path and
// must not call back into the machine. It survives Reset, so a pooled
// machine keeps streaming across sweep points until the sink is removed.
func (m *Machine) SetSink(s trace.Sink) { m.sink = s }

// Sink returns the installed trace sink, or nil.
func (m *Machine) Sink() trace.Sink { return m.sink }

// Phase annotates subsequent messages with a phase name, stamped onto the
// emitted trace events ("" clears it). Slash-separated names ("sort/merge")
// render as nested scopes in trace.ChromeSink. Phases are labels only: they
// do not affect the cost metrics.
func (m *Machine) Phase(name string) { m.phase = name }

// regID interns a register name, assigning the next small id on first use.
func (m *Machine) regID(name Reg) regID {
	if name == m.reg0Name && len(name) > 0 {
		return m.reg0ID
	}
	if name == m.reg1Name && len(name) > 0 {
		m.reg0Name, m.reg1Name = name, m.reg0Name
		m.reg0ID, m.reg1ID = m.reg1ID, m.reg0ID
		return m.reg0ID
	}
	id, ok := m.regIDs[name]
	if !ok {
		id = regID(len(m.regNames))
		m.regIDs[name] = id
		m.regNames = append(m.regNames, name)
	}
	if len(name) > 0 {
		m.reg0Name, m.reg1Name = name, m.reg0Name
		m.reg0ID, m.reg1ID = id, m.reg0ID
	}
	return id
}

// regIDLookup is regID without interning: ok=false if the name has never
// been used on this machine (no PE can hold it).
func (m *Machine) regIDLookup(name Reg) (regID, bool) {
	if name == m.reg0Name && len(name) > 0 {
		return m.reg0ID, true
	}
	if name == m.reg1Name && len(name) > 0 {
		return m.reg1ID, true
	}
	id, ok := m.regIDs[name]
	return id, ok
}

// peAt returns the PE at c, allocating its tile if needed and marking the PE
// touched. It is the accessor for every operation that makes a PE exist.
func (m *Machine) peAt(c Coord) *pe {
	k := tileKey(c)
	t := m.last
	if t == nil || m.lastKey != k {
		var ok bool
		t, ok = m.tiles[k]
		if !ok {
			t = &tile{}
			m.tiles[k] = t
		}
		m.lastKey, m.last = k, t
	}
	p := &t.pes[tileIndex(c)]
	if !p.touched {
		p.touched = true
		t.touched++
		m.touched++
	}
	return p
}

// peLookup returns the PE at c if it has been touched, else nil. Read-only
// accessors use it so queries never make PEs exist.
func (m *Machine) peLookup(c Coord) *pe {
	k := tileKey(c)
	t := m.last
	if t == nil || m.lastKey != k {
		var ok bool
		t, ok = m.tiles[k]
		if !ok {
			return nil
		}
		m.lastKey, m.last = k, t
	}
	p := &t.pes[tileIndex(c)]
	if !p.touched {
		return nil
	}
	return p
}

// Metrics returns the current cost counters. Under a finite backend
// PeakMemory is the largest number of registers ever co-resident on one
// physical PE (folding multiplies the per-PE footprint by the number of
// virtual PEs a physical PE hosts); it is always at least the virtual
// per-PE peak, and equal to it when no two touched virtual PEs share a
// physical home.
func (m *Machine) Metrics() Metrics {
	pm := m.peakMem
	if m.physPeak > pm {
		pm = m.physPeak
	}
	return Metrics{
		Energy:     m.acc.energy,
		Depth:      m.acc.maxDepth,
		Distance:   m.acc.maxDist,
		Messages:   m.acc.messages,
		PeakMemory: pm,
	}
}

// ResetClocks zeroes all causality clocks and the depth/distance maxima
// while keeping register contents and energy. Use it to measure the depth of
// a later phase in isolation.
func (m *Machine) ResetClocks() {
	for _, t := range m.tiles {
		if t.touched == 0 {
			continue // clocks only ever change on touched PEs
		}
		for i := range t.pes {
			t.pes[i].clk = clock{}
		}
	}
	m.acc.maxDepth, m.acc.maxDist = 0, 0
}

// Reset returns the machine to its freshly-constructed state — all
// registers freed, all clocks and cost counters zeroed — while keeping the
// allocated tiles, per-PE register slices, interning table and round buffers
// for reuse. Sweeps run many sizes on one machine with Reset between points
// instead of reallocating the grid each time. The memory limit, trace sink,
// congestion-tracking, shard-count, SetBatchSends and backend settings
// survive (the phase annotation is cleared); congestion link loads and
// physical-PE occupancy counts are cleared. Reset also closes a Par round
// that a panic left open, so a recovered machine can be reused.
func (m *Machine) Reset() {
	for _, t := range m.tiles {
		if t.touched == 0 {
			continue
		}
		t.touched = 0
		for i := range t.pes {
			p := &t.pes[i]
			if !p.touched {
				continue
			}
			for j := range p.regs {
				p.regs[j] = regSlot{}
			}
			p.regs = p.regs[:0]
			p.clk = clock{}
			p.peakReg = 0
			p.wireSeen = 0
			p.indepSeen = 0
			p.touched = false
		}
	}
	m.touched = 0
	m.acc = chargeAccum{}
	m.peakMem = 0
	m.phase = ""
	m.indepLogs = m.indepLogs[:0]
	m.indepGens = m.indepGens[:0]
	clear(m.round)
	m.round = m.round[:0]
	m.parOpen = false
	if m.cong != nil {
		m.cong.Reset()
	}
	if m.physCnt != nil {
		clear(m.physCnt)
	}
	m.physPeak = 0
}

// Set stores v into register r of PE c without any communication. It models
// local computation (free in this model) or initial input placement.
func (m *Machine) Set(c Coord, r Reg, v Value) {
	p := m.peAt(c)
	if p.set(m.regID(r), v) {
		m.physGrow(c)
	}
	m.noteMem(c, p)
}

// Get returns the value in register r of PE c. It panics if the register is
// empty: reading a value a PE never received is an algorithmic bug.
func (m *Machine) Get(c Coord, r Reg) Value {
	p := m.peLookup(c)
	if p == nil {
		panic(fmt.Sprintf("machine: read from untouched PE %v register %q", c, r))
	}
	if id, ok := m.regIDLookup(r); ok {
		if v, ok := p.lookup(id); ok {
			return v
		}
	}
	panic(fmt.Sprintf("machine: read from empty register %q of %v", r, c))
}

// Lookup returns the value in register r of PE c, with ok=false if empty.
func (m *Machine) Lookup(c Coord, r Reg) (Value, bool) {
	p := m.peLookup(c)
	if p == nil {
		return nil, false
	}
	id, ok := m.regIDLookup(r)
	if !ok {
		return nil, false
	}
	return p.lookup(id)
}

// Del frees register r of PE c. Algorithms free scratch registers so the
// per-PE memory peak reflects their true O(1) working set.
func (m *Machine) Del(c Coord, r Reg) {
	if p := m.peLookup(c); p != nil {
		if id, ok := m.regIDLookup(r); ok {
			if p.del(id) {
				m.physShrink(c)
			}
		}
	}
}

// Has reports whether register r of PE c holds a value.
func (m *Machine) Has(c Coord, r Reg) bool {
	_, ok := m.Lookup(c, r)
	return ok
}

// Send transmits the value in register srcReg of PE from into register
// dstReg of PE to, paying Manhattan-distance energy and extending the
// dependent-message chain. A send from a PE to itself is free (it is local
// computation).
//
// Send is the singleton, immediately-delivered form: a later Send from `to`
// chains onto this one. For rounds of causally independent messages use
// Par, whose large rounds are eligible for shard-parallel delivery.
func (m *Machine) Send(from Coord, srcReg Reg, to Coord, dstReg Reg) {
	v := m.Get(from, srcReg)
	m.SendValue(from, to, dstReg, v)
}

// SendValue transmits v, a value computed locally at from, into register
// dstReg of to. The chain semantics are identical to Send; like Send it is
// the chain-extending singleton form — prefer Par for bulk rounds of
// independent messages.
func (m *Machine) SendValue(from, to Coord, dstReg Reg, v Value) {
	if from == to {
		m.Set(to, dstReg, v)
		return
	}
	c := m.charge(from, to, m.peAt(from).clk, v)
	m.deliver(to, c, m.regID(dstReg), v)
}

// chargeAccum holds the energy and message counters and the depth/distance
// maxima of charged messages: the machine's own or a Wires kernel's.
type chargeAccum struct {
	energy   int64
	messages int64
	maxDepth int64
	maxDist  int64
}

// add charges one message of distance d sent by a PE whose clock is src,
// and returns the message's chain: the sender's clock extended by one hop.
func (a *chargeAccum) add(src clock, d int64) clock {
	a.energy += d
	a.messages++
	c := clock{src.depth + 1, src.dist + d}
	a.maxDepth = max(a.maxDepth, c.depth)
	a.maxDist = max(a.maxDist, c.dist)
	return c
}

// merge adds the counters of b.
func (a *chargeAccum) merge(b chargeAccum) {
	a.energy += b.energy
	a.messages += b.messages
	a.maxDepth = max(a.maxDepth, b.maxDepth)
	a.maxDist = max(a.maxDist, b.maxDist)
}

// charge accounts one message from != to whose sender's clock is src —
// distance, energy, message count, depth/distance maxima, and the
// congestion route and sink event when those are attached — and returns
// the message's chain. It mutates no clock.
func (m *Machine) charge(from, to Coord, src clock, v Value) clock {
	var d int64
	if m.bk.Kind == BackendIdeal { // Backend.Dist is too large to inline
		d = Dist(from, to)
	} else {
		d = m.bk.Dist(from, to)
	}
	c := m.acc.add(src, d)
	if m.cong != nil || m.sink != nil {
		m.observe(from, to, d, v, c)
	}
	return c
}

// observe routes a charged message on the congestion tracker and streams it
// to the sink, whichever is attached. Kept out of line so the untraced
// charge stays small.
func (m *Machine) observe(from, to Coord, d int64, v Value, c clock) {
	if m.cong != nil {
		f := m.bk.fab()
		m.cong.Walk(f, f.Fold(fabric.Coord(from)), f.Fold(fabric.Coord(to)))
	}
	if m.sink == nil {
		return
	}
	e := trace.Event{
		Seq:         m.acc.messages,
		From:        trace.Coord(from),
		To:          trace.Coord(to),
		Dist:        d,
		Value:       v,
		DepthBefore: c.depth - 1,
		DepthAfter:  c.depth,
		DistBefore:  c.dist - d,
		DistAfter:   c.dist,
		EnergyCum:   m.acc.energy,
		Phase:       m.phase,
	}
	m.sink.Event(&e)
}

// deliver applies a charged message with chain c at its receiver: it
// journals the PE in any open Independent branch, merges c into its clock,
// stores v in register dst, and accounts physical occupancy and the memory
// peak and limit.
func (m *Machine) deliver(to Coord, c clock, dst regID, v Value) {
	p := m.peAt(to)
	m.noteTouch(to, p)
	p.clk.merge(c.depth, c.dist)
	if p.set(dst, v) {
		m.physGrow(to)
	}
	m.noteMem(to, p)
}

// indepEntry is one journaled PE of an Independent branch: the PE and the
// clock it had when the branch first touched it.
type indepEntry struct {
	c   Coord
	p   *pe
	pre clock
}

// getLog pops a clock log off the pool (or makes one); putLog clears it and
// returns it, keeping Independent allocation-free in steady state. The same
// scheme recycles branch journals.
func (m *Machine) getLog() map[Coord]clock {
	if n := len(m.logPool); n > 0 {
		log := m.logPool[n-1]
		m.logPool = m.logPool[:n-1]
		return log
	}
	return make(map[Coord]clock)
}

func (m *Machine) putLog(log map[Coord]clock) {
	clear(log)
	m.logPool = append(m.logPool, log)
}

func (m *Machine) getJournal() []indepEntry {
	if n := len(m.journalPool); n > 0 {
		j := m.journalPool[n-1]
		m.journalPool = m.journalPool[:n-1]
		return j
	}
	return nil
}

func (m *Machine) putJournal(j []indepEntry) {
	for i := range j {
		j[i] = indepEntry{}
	}
	m.journalPool = append(m.journalPool, j[:0])
}

// Independent executes the given tasks as logically parallel branches of
// the computation: message chains inside one branch do not extend chains of
// another, even when branches relay through the same PEs. The depth and
// distance metrics measure the longest chain through the resulting DAG
// (each branch starts from the clocks at the fork; the join merges the
// branches' clock maxima), matching the paper's definition of depth as the
// longest chain of consecutively dependent messages.
//
// Algorithms use it for recursions whose siblings are data-independent —
// e.g. the four quadrant sorts of the 2-D mergesort — where a sequential
// simulation would otherwise serialize unrelated chains through shared
// scratch PEs. Energy accounting is unaffected. Branches still execute
// sequentially in program order, so they must not communicate through
// registers either.
func (m *Machine) Independent(tasks ...func()) {
	if len(tasks) == 0 {
		return
	}
	if len(tasks) == 1 {
		tasks[0]()
		return
	}
	merged := m.getLog()
	for _, task := range tasks {
		m.indepGen++
		m.indepGens = append(m.indepGens, m.indepGen)
		m.indepLogs = append(m.indepLogs, m.getJournal())
		task()
		n := len(m.indepLogs)
		log := m.indepLogs[n-1]
		m.indepLogs = m.indepLogs[:n-1]
		m.indepGens = m.indepGens[:n-1]
		for i := range log {
			e := &log[i]
			end := merged[e.c]
			end.merge(e.p.clk.depth, e.p.clk.dist)
			merged[e.c] = end
			e.p.clk = e.pre // roll back for the next branch
		}
		m.putJournal(log)
	}
	for c, clk := range merged {
		p := m.peAt(c)
		// The rolled-back clock is what the fork point left behind; the
		// join raises it to the branch maxima. Record the touch in any
		// enclosing branch so nested forks roll back correctly.
		m.noteTouch(c, p)
		p.clk.merge(clk.depth, clk.dist)
	}
	m.putLog(merged)
}

// noteTouch records PE p's current clock in every active Independent branch
// journal that has not seen it yet. Must be called before any clock
// mutation. Branch generations increase down the stack and a PE is always
// journaled into a contiguous suffix of it, so p.indepSeen — the innermost
// generation that has seen p — makes the already-journaled case one compare.
func (m *Machine) noteTouch(c Coord, p *pe) {
	n := len(m.indepGens)
	if n == 0 || p.indepSeen >= m.indepGens[n-1] {
		return
	}
	for i := n - 1; i >= 0 && m.indepGens[i] > p.indepSeen; i-- {
		m.indepLogs[i] = append(m.indepLogs[i], indepEntry{c: c, p: p, pre: p.clk})
	}
	p.indepSeen = m.indepGens[n-1]
}

// Par executes a round of logically simultaneous sends: every message
// issued through the callback extends its sender's chain as of the start of
// the round, so deliveries within the round never chain to other sends of
// the same round. Algorithms use it for parallel steps in which many PEs
// act at once (compare-exchange levels, permutation routing, PRAM steps).
// Deliveries are applied in issue order; if two messages target the same
// register, the later one wins; a send from a PE to itself is free local
// computation. The callback must not send except through send — no nested
// Par (which panics), Send, SendValue, Independent or Wires — and send must
// not be called after the callback returns.
//
// Each message is charged when it is issued, against its sender's current
// clock: that is the start-of-round clock, because nothing is delivered
// before the callback returns. A round of at least shardMin messages on a
// sharded machine (SetShards > 1) under Ideal is then delivered across
// shards, with byte-identical results (see shard.go).
func (m *Machine) Par(round func(send func(from, to Coord, dstReg Reg, v Value))) {
	if m.parOpen {
		panic("machine: Par called inside a Par round")
	}
	m.parOpen = true
	m.round = m.round[:0]
	round(m.parSend)
	m.parOpen = false
	msgs := m.round
	if m.shards > 1 && len(msgs) >= m.shardMin && !m.bk.Finite() {
		m.deliverSharded(msgs)
	} else {
		for i := range msgs {
			g := &msgs[i]
			m.deliver(g.to, g.clk, g.dst, g.v)
		}
	}
	clear(msgs) // release payload references until the next round
}

// roundMsg is one charged message of a Par round awaiting delivery: its
// receiver, its chain and its payload.
type roundMsg struct {
	to  Coord
	clk clock
	v   Value
	dst regID
}

// issue is Par's send function: it charges the message and queues it for
// delivery when the round's callback returns.
func (m *Machine) issue(from, to Coord, dstReg Reg, v Value) {
	if !m.parOpen {
		panic("machine: send called outside its Par round")
	}
	g := roundMsg{to: to, v: v, dst: m.regID(dstReg)}
	if from != to {
		g.clk = m.charge(from, to, m.peAt(from).clk, v)
	}
	m.round = append(m.round, g)
}

// MemoryLimitError reports a PE exceeding the configured per-PE register
// limit. The machine panics with this value (an O(1)-memory contract
// violation is an algorithmic bug, not a data error); facades that expose
// the limit as configuration may recover it and return it as an error.
type MemoryLimitError struct {
	PE        Coord
	Registers int
	Limit     int
}

func (e MemoryLimitError) Error() string {
	return fmt.Sprintf("machine: PE %v exceeded memory limit: %d registers > limit %d", e.PE, e.Registers, e.Limit)
}

func (m *Machine) noteMem(c Coord, p *pe) {
	n := len(p.regs)
	if n > p.peakReg {
		p.peakReg = n
	}
	if n > m.peakMem {
		m.peakMem = n
	}
	if m.memLimit > 0 && n > m.memLimit {
		panic(MemoryLimitError{PE: c, Registers: n, Limit: m.memLimit})
	}
}

// Clock returns the causality clock (depth, distance) of PE c, i.e. the
// longest dependent-message chain ending there.
func (m *Machine) Clock(c Coord) (depth, dist int64) {
	p := m.peLookup(c)
	if p == nil {
		return 0, 0
	}
	return p.clk.depth, p.clk.dist
}

// TouchedPEs returns the number of PEs that have ever held a value or
// participated in a message.
func (m *Machine) TouchedPEs() int { return m.touched }

// Registers returns a sorted list of the live register names of PE c,
// mainly for debugging and tests.
func (m *Machine) Registers(c Coord) []Reg {
	p := m.peLookup(c)
	if p == nil {
		return nil
	}
	names := make([]Reg, 0, len(p.regs))
	for i := range p.regs {
		names = append(names, m.regNames[p.regs[i].id])
	}
	sort.Strings(names)
	return names
}
