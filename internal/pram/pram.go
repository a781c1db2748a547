// Package pram simulates PRAM algorithms on the Spatial Computer Model
// (Section VII of the paper).
//
// The shared memory is emulated by a dedicated subgrid of processors (one
// word-sized cell per PE, row-major) and the PRAM processors occupy a square
// subgrid next to it, indexed along the Z-order curve. Each synchronous PRAM
// step lets every processor read one cell, compute locally, and write one
// cell.
//
//   - The EREW simulation (Lemma VII.1) services each access with a direct
//     request/response message pair: O(p(sqrt p + sqrt m)) energy and O(1)
//     depth per step. It rejects concurrent accesses to a cell.
//   - The CRCW simulation (Lemma VII.2) resolves concurrency with core's
//     keyed pipeline: it sorts access tuples with the energy-optimal 2-D
//     mergesort and elects one leader per cell. A read's leader fetches
//     the cell, a segmented scan broadcasts the value over the leader's
//     segment, and the results sort back to the requesting processors; a
//     write's leader, the lowest processor of its cell, stores its own
//     value. Same energy, O(log^3 p) depth per step.
package pram

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/order"
)

// Write is a memory write issued by a processor: store Val into cell Addr.
type Write struct {
	Addr int
	Val  machine.Value
}

// Program is a synchronous PRAM algorithm. Each processor owns O(1) words
// of local state (the spatial PE simulating it holds the state in one
// register). In every step each processor may read one cell, then compute,
// then write one cell.
type Program interface {
	// Procs returns the number of PRAM processors p.
	Procs() int
	// Cells returns the number of shared memory cells m.
	Cells() int
	// Steps returns the number of synchronous steps T.
	Steps() int
	// InitState returns processor proc's initial local state.
	InitState(proc int) machine.Value
	// Read returns the cell processor proc reads at step t (ok=false if
	// the processor does not read this step).
	Read(t, proc int, state machine.Value) (addr int, ok bool)
	// Compute consumes the read value (nil if the processor did not read)
	// and returns the new local state and an optional write.
	Compute(t, proc int, state machine.Value, read machine.Value) (machine.Value, *Write)
}

// Mode selects the concurrency discipline of the simulation.
type Mode int

const (
	// EREW rejects any two processors touching the same cell in a step.
	EREW Mode = iota
	// CRCW allows arbitrary concurrent reads and writes; concurrent
	// writes are resolved in favor of the lowest processor index
	// (a deterministic instance of the paper's "arbitrary" CRCW).
	CRCW
)

func (md Mode) String() string {
	if md == EREW {
		return "EREW"
	}
	return "CRCW"
}

// ErrConcurrentAccess is returned by the EREW simulation when a step
// violates exclusive access.
var ErrConcurrentAccess = errors.New("pram: concurrent access to a memory cell in EREW mode")

// Sim simulates one Program on a Machine.
type Sim struct {
	M    *machine.Machine
	Prog Program
	Mode Mode

	mem       grid.Rect
	memTrack  grid.Track
	procs     grid.Rect
	procTrack grid.Track
	procN     int // padded processor count (procs.Size())
	state     []machine.Value
}

// memReg is the register holding a memory cell's word.
const memReg = "pram.mem"

// New lays out the memory and processor subgrids on the machine and places
// the initial memory image. The memory subgrid is ceil(sqrt m) x
// ceil(sqrt m) at the origin; the processor subgrid is the next power-of-two
// square to its right (square and power-of-two so the CRCW sorting steps
// can run on it).
func New(m *machine.Machine, prog Program, mode Mode, memInit []machine.Value) *Sim {
	cells := prog.Cells()
	if len(memInit) > cells {
		panic(fmt.Sprintf("pram: %d init values for %d cells", len(memInit), cells))
	}
	memSide := int(math.Ceil(math.Sqrt(float64(max(cells, 1)))))
	mem := grid.Square(machine.Coord{}, memSide)
	procSide := grid.Pow2Side(prog.Procs())
	procs := mem.RightOf(procSide, procSide)

	s := &Sim{
		M: m, Prog: prog, Mode: mode,
		mem: mem, memTrack: grid.RowMajor(mem),
		procs: procs, procTrack: grid.ZOrder(procs),
		procN: procs.Size(),
		state: make([]machine.Value, prog.Procs()),
	}
	for i := 0; i < cells; i++ {
		var v machine.Value
		if i < len(memInit) {
			v = memInit[i]
		}
		m.Set(s.memTrack.At(i), memReg, v)
	}
	for p := 0; p < prog.Procs(); p++ {
		s.state[p] = prog.InitState(p)
		m.Set(s.procTrack.At(p), "pram.state", s.state[p])
	}
	return s
}

// MemRegion and ProcRegion expose the layout for tests and tools.
func (s *Sim) MemRegion() grid.Rect  { return s.mem }
func (s *Sim) ProcRegion() grid.Rect { return s.procs }

// Memory returns the current contents of the shared memory.
func (s *Sim) Memory() []machine.Value {
	out := make([]machine.Value, s.Prog.Cells())
	for i := range out {
		out[i] = s.M.Get(s.memTrack.At(i), memReg)
	}
	return out
}

// State returns processor proc's local state.
func (s *Sim) State(proc int) machine.Value { return s.state[proc] }

// Run executes all steps of the program.
func (s *Sim) Run() error {
	for t := 0; t < s.Prog.Steps(); t++ {
		if err := s.Step(t); err != nil {
			return fmt.Errorf("step %d: %w", t, err)
		}
	}
	return nil
}

// Step executes one synchronous PRAM step.
func (s *Sim) Step(t int) error {
	p := s.Prog.Procs()
	reads := make([]int, p) // -1: no read
	for i := 0; i < p; i++ {
		addr, ok := s.Prog.Read(t, i, s.state[i])
		if !ok {
			reads[i] = -1
			continue
		}
		if addr < 0 || addr >= s.Prog.Cells() {
			return fmt.Errorf("pram: processor %d reads out-of-range cell %d", i, addr)
		}
		reads[i] = addr
	}

	var got []machine.Value
	var err error
	if s.Mode == EREW {
		got, err = s.readEREW(reads)
	} else {
		got, err = s.readCRCW(reads)
	}
	if err != nil {
		return err
	}

	writes := make([]*Write, p)
	for i := 0; i < p; i++ {
		newState, w := s.Prog.Compute(t, i, s.state[i], got[i])
		s.state[i] = newState
		s.M.Set(s.procTrack.At(i), "pram.state", newState)
		if w != nil {
			if w.Addr < 0 || w.Addr >= s.Prog.Cells() {
				return fmt.Errorf("pram: processor %d writes out-of-range cell %d", i, w.Addr)
			}
		}
		writes[i] = w
	}
	if s.Mode == EREW {
		// Exclusive access also forbids one processor reading a cell
		// while another writes it in the same step.
		readBy := make(map[int]int, p)
		for i, a := range reads {
			if a >= 0 {
				readBy[a] = i
			}
		}
		for i, w := range writes {
			if w == nil {
				continue
			}
			if other, ok := readBy[w.Addr]; ok && other != i {
				return fmt.Errorf("%w: processor %d writes cell %d read by processor %d",
					ErrConcurrentAccess, i, w.Addr, other)
			}
		}
		return s.writeEREW(writes)
	}
	s.writeCRCW(writes)
	return nil
}

// readEREW services reads with one request round and one reply round.
func (s *Sim) readEREW(reads []int) ([]machine.Value, error) {
	seen := make(map[int]int, len(reads))
	for i, a := range reads {
		if a < 0 {
			continue
		}
		if other, dup := seen[a]; dup {
			return nil, fmt.Errorf("%w: processors %d and %d read cell %d", ErrConcurrentAccess, other, i, a)
		}
		seen[a] = i
	}
	s.M.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
		for i, a := range reads {
			if a >= 0 {
				send(s.procTrack.At(i), s.memTrack.At(a), "pram.req", i)
			}
		}
	})
	got := make([]machine.Value, len(reads))
	s.M.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
		for i, a := range reads {
			if a >= 0 {
				v := s.M.Get(s.memTrack.At(a), memReg)
				got[i] = v
				send(s.memTrack.At(a), s.procTrack.At(i), "pram.val", v)
			}
		}
	})
	for i, a := range reads {
		if a >= 0 {
			s.M.Del(s.memTrack.At(a), "pram.req")
			s.M.Del(s.procTrack.At(i), "pram.val")
		}
	}
	return got, nil
}

func (s *Sim) writeEREW(writes []*Write) error {
	seen := make(map[int]int, len(writes))
	for i, w := range writes {
		if w == nil {
			continue
		}
		if other, dup := seen[w.Addr]; dup {
			return fmt.Errorf("%w: processors %d and %d write cell %d", ErrConcurrentAccess, other, i, w.Addr)
		}
		seen[w.Addr] = i
	}
	s.M.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
		for i, w := range writes {
			if w != nil {
				send(s.procTrack.At(i), s.memTrack.At(w.Addr), memReg, w.Val)
			}
		}
	})
	return nil
}

// dummyKey sorts non-participating tuples after all real addresses.
const dummyKey = int64(1) << 60

// readCRCW implements the sorting-based concurrent read of Lemma VII.2.
func (s *Sim) readCRCW(reads []int) ([]machine.Value, error) {
	// Every processor (including padded grid slots) contributes a tuple
	// (key=addr, seq=proc) so the sorted layout covers the whole subgrid.
	k := s.elect(func(i int) order.KV {
		key := dummyKey
		if i < len(reads) && reads[i] >= 0 {
			key = int64(reads[i])
		}
		return order.KV{Key: key, Seq: int64(i)}
	})
	// Leaders fetch their cell's value and a segmented broadcast hands it
	// to every reader of the cell.
	k.Fetch(func(v machine.Value) (machine.Coord, bool) {
		kv := v.(order.KV)
		if kv.Key == dummyKey {
			return machine.Coord{}, false
		}
		return s.memTrack.At(int(kv.Key)), true
	}, memReg, nil)

	// Route results back: tuples (key=orig processor, val=read value)
	// sorted by key land exactly on their processor (processors are
	// Z-order indexed).
	for i := 0; i < s.procN; i++ {
		c := s.procTrack.At(i)
		kv := s.M.Get(c, "pram.t").(order.KV)
		s.M.Set(c, "pram.t", order.KV{Key: kv.Seq, Val: s.M.Get(c, core.KeyedVal)})
		s.M.Del(c, core.KeyedVal)
		s.M.Del(c, core.KeyedHead)
	}
	k.Sort(order.KVLess)

	got := make([]machine.Value, len(reads))
	for i := range reads {
		kv := s.M.Get(s.procTrack.At(i), "pram.t").(order.KV)
		if int(kv.Key) != i {
			return nil, fmt.Errorf("pram: tuple for processor %d landed at %d", kv.Key, i)
		}
		if reads[i] >= 0 {
			got[i] = kv.Val
		}
	}
	grid.Clear(s.M, s.procTrack, "pram.t", s.procN)
	return got, nil
}

// writeCRCW implements the sorting-based concurrent write: tuples sorted by
// (address, processor), the first processor of each address group wins and
// delivers its value itself (no scan).
func (s *Sim) writeCRCW(writes []*Write) {
	s.elect(func(i int) order.KV {
		if i < len(writes) && writes[i] != nil {
			return order.KV{Key: int64(writes[i].Addr), Seq: int64(i), Val: writes[i].Val}
		}
		return order.KV{Key: dummyKey, Seq: int64(i)}
	})
	s.M.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
		for i := 0; i < s.procN; i++ {
			c := s.procTrack.At(i)
			kv := s.M.Get(c, "pram.t").(order.KV)
			if s.M.Get(c, core.KeyedHead).(bool) && kv.Key != dummyKey {
				send(c, s.memTrack.At(int(kv.Key)), memReg, kv.Val)
			}
		}
	})
	grid.Clear(s.M, s.procTrack, "pram.t", s.procN)
	grid.Clear(s.M, s.procTrack, core.KeyedHead, s.procN)
}

// elect places tuple(i) on every processor slot i, sorts the tuples by
// (address, processor) onto the Z-order track and marks one leader per
// address.
func (s *Sim) elect(tuple func(i int) order.KV) *core.Keyed {
	for i := 0; i < s.procN; i++ {
		s.M.Set(s.procTrack.At(i), "pram.t", tuple(i))
	}
	k := core.NewKeyed(s.M, s.procs, grid.TrackZOrder, "pram.t")
	k.Sort(order.KVLess)
	k.ElectHeads(func(v machine.Value) int64 { return v.(order.KV).Key })
	return k
}
