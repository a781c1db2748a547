package graph

import (
	"math"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/tree"
)

// CC register names (the keyed pipeline's scratch registers are core's).
const (
	regEdge  = "graph.edge"  // directed-edge record on the edge grid
	regLab   = "graph.lab"   // current label, kept on each vertex cell
	regCand  = "graph.cand"  // per-vertex hook candidate delivery
	regPair  = "graph.pair"  // (label, candidate) pair on the vertex grid
	regRCand = "graph.rcand" // per-representative minimum candidate delivery
)

// edgeRec is the on-grid record of one directed edge; lab carries the
// source endpoint's fetched label between the two sort passes.
type edgeRec struct {
	src, dst int
	lab      int64
	pad      bool
}

// vpair is the (label, candidate) record the per-representative
// aggregation sorts on the vertex grid.
type vpair struct {
	lab, cand int64
	pad       bool
}

// Components labels every vertex with the minimum vertex id of its
// connected component and returns the labels with the number of hooking
// rounds executed.
//
// Each round is a Shiloach–Vishkin-style min-hooking step built entirely
// from Table I primitives, followed by a pointer-jumping contraction that
// is a single treefix (RootfixSum) over the hook forest:
//
//  1. Sort the 2m directed edges by source (merge sort onto the Z-order
//     track), elect segment leaders, and fetch label[src] from the vertex
//     grid — the spmv gather pattern — then flood it with a segmented
//     First-scan so every edge knows its source's label.
//  2. Re-sort by destination and take a segmented min-scan over the
//     carried labels: the last cell of each segment holds the minimum
//     neighboring label of that destination and delivers it to the
//     vertex cell (one conflict-free send per distinct destination).
//  3. Aggregate candidates per representative: each vertex cell forms a
//     (label, min(label, candidate)) pair, the vertex grid sorts the
//     pairs by label, and a segmented min-scan delivers each label
//     group's minimum to the representative's cell. Without this step,
//     hooking degrades to O(diameter) rounds on adversarial id orders;
//     with it, representatives at least halve per merging round, giving
//     O(log n) rounds.
//  4. Hook: a representative r with a strictly smaller candidate c hooks
//     to c; every hook target is itself a representative with a smaller
//     id, so the forest (plus a virtual super-root for non-improving
//     representatives) is acyclic, and one RootfixSum over it — the
//     treefix primitive, Θ(n) energy and O(log n) depth for any shape —
//     flattens every chain to its top representative in one shot. The new
//     labels are written back to the vertex cells in one routing round.
//
// Convergence: if any edge joins two differently-labeled vertices, the
// larger-labeled side's representative receives a strictly smaller
// candidate, so a round with no improvement proves per-component label
// uniformity; labels only decrease and are bounded below by the component
// minimum, which is a fixpoint.
//
// Composed costs per round: two edge-grid merge sorts Θ((2m)^1.5) energy,
// one vertex-grid merge sort Θ(n^1.5), the scans Θ(m), the treefix Θ(n);
// depth is sort-dominated at O(log² m). With O(log n) rounds the total is
// Θ(m^1.5 log n) energy and O(log³ n) depth.
func Components(m *machine.Machine, g *Graph) ([]int, int, error) {
	if err := g.Validate(); err != nil {
		return nil, 0, err
	}
	labels := make([]int, g.N)
	for v := range labels {
		labels[v] = v
	}
	if g.N == 0 || len(g.Adj) == 0 {
		return labels, 0, nil
	}

	// Vertex square at the origin, edge square to its right (same layout
	// as BFS).
	vr := grid.Square(machine.Coord{}, grid.Pow2Side(g.N))
	vt := grid.RowMajor(vr)
	vtz := grid.ZOrder(vr)
	vtotal := vr.Size()
	eside := grid.Pow2Side(len(g.Adj))
	er := vr.RightOf(eside, eside)
	et := grid.ZOrder(er)
	total := er.Size()
	edges := core.NewKeyed(m, er, grid.TrackZOrder, regEdge)
	pairs := core.NewKeyed(m, vr, grid.TrackZOrder, regPair)

	// Initial labels are the identity — free placement.
	lab := make([]int64, g.N)
	for v := 0; v < g.N; v++ {
		lab[v] = int64(v)
		m.Set(vt.At(v), regLab, int64(v))
	}
	// Directed edge records, one per cell (free placement of the input).
	for i := 0; i < total; i++ {
		m.Set(et.At(i), regEdge, edgeRec{pad: true})
	}
	{
		i := 0
		for v := 0; v < g.N; v++ {
			for _, w := range g.Neighbors(v) {
				m.Set(et.At(i), regEdge, edgeRec{src: v, dst: w})
				i++
			}
		}
	}

	maxRounds := 2*int(math.Ceil(math.Log2(float64(g.N)+1))) + 8
	executed := 0
	for rounds := 0; rounds < maxRounds; rounds++ {
		executed++
		// Step 1: sort by source, elect leaders, gather label[src] with
		// the spmv request/reply rounds (leaders announce themselves, the
		// vertex cell answers with its label register).
		m.Phase("graph/cc-gather")
		edges.Sort(edgeBySrc)
		edges.ElectHeads(srcKey)
		edges.Fetch(func(v machine.Value) (machine.Coord, bool) {
			e := v.(edgeRec)
			return vt.At(e.src), !e.pad
		}, regLab, infInt64)
		for i := 0; i < total; i++ {
			c := et.At(i)
			e := m.Get(c, regEdge).(edgeRec)
			if !e.pad {
				e.lab = m.Get(c, core.KeyedVal).(int64)
				m.Set(c, regEdge, e)
			}
			m.Del(c, core.KeyedVal)
			m.Del(c, core.KeyedHead)
		}

		// Step 2: sort by destination, segmented min over carried labels,
		// deliver each destination's minimum neighboring label.
		m.Phase("graph/cc-scatter")
		edges.Sort(edgeByDst)
		edges.ElectHeads(dstKey)
		for i := 0; i < total; i++ {
			c := et.At(i)
			e := m.Get(c, regEdge).(edgeRec)
			v := infInt64
			if !e.pad {
				v = e.lab
			}
			m.Set(c, core.KeyedVal, v)
		}
		edges.Scan(minInt64, infInt64)
		edges.DeliverLast(func(v machine.Value) (machine.Coord, bool) {
			e := v.(edgeRec)
			return vt.At(e.dst), !e.pad
		}, regCand)
		for i := 0; i < total; i++ {
			c := et.At(i)
			m.Del(c, core.KeyedVal)
			m.Del(c, core.KeyedHead)
		}

		// Step 3: aggregate candidates per representative on the vertex
		// grid: sort (label, candidate) pairs by label, segmented min,
		// deliver each group's minimum to the representative's cell.
		m.Phase("graph/cc-aggregate")
		for v := 0; v < vtotal; v++ {
			c := vt.At(v)
			if v >= g.N {
				m.Set(c, regPair, vpair{pad: true})
				continue
			}
			cand := lab[v]
			if got, ok := m.Lookup(c, regCand); ok {
				if got.(int64) < cand {
					cand = got.(int64)
				}
				m.Del(c, regCand)
			}
			m.Set(c, regPair, vpair{lab: lab[v], cand: cand})
		}
		pairs.Sort(pairByLab)
		pairs.ElectHeads(labKey)
		for i := 0; i < vtotal; i++ {
			c := vtz.At(i)
			p := m.Get(c, regPair).(vpair)
			v := infInt64
			if !p.pad {
				v = p.cand
			}
			m.Set(c, core.KeyedVal, v)
		}
		pairs.Scan(minInt64, infInt64)
		pairs.DeliverLast(func(v machine.Value) (machine.Coord, bool) {
			p := v.(vpair)
			return vt.At(int(p.lab)), !p.pad
		}, regRCand)
		for i := 0; i < vtotal; i++ {
			c := vtz.At(i)
			m.Del(c, core.KeyedVal)
			m.Del(c, core.KeyedHead)
			m.Del(c, regPair)
		}

		// Step 4: hook representatives to strictly smaller candidates and
		// contract every chain with one treefix over the hook forest.
		m.Phase("graph/cc-contract")
		improved := false
		super := g.N // virtual super-root for non-improving representatives
		parent := make([]int, g.N+1)
		vals := make([]float64, g.N+1)
		parent[super] = super
		for v := 0; v < g.N; v++ {
			rc, ok := m.Lookup(vt.At(v), regRCand)
			if ok {
				m.Del(vt.At(v), regRCand)
			}
			if lab[v] != int64(v) {
				parent[v] = int(lab[v]) // member → its representative
				continue
			}
			if ok && rc.(int64) < int64(v) {
				parent[v] = int(rc.(int64)) // hook to the smaller rep
				improved = true
			} else {
				parent[v] = super
				vals[v] = float64(v) // chain tops contribute their own id
			}
		}
		if !improved {
			break
		}
		flat, err := tree.RootfixSum(m, tree.Tree{Parent: parent}, vals)
		if err != nil {
			return nil, 0, err
		}
		// Write the contracted labels back to the vertex cells: one
		// routing round from the treefix subgrid (whose origin coincides
		// with the vertex grid's) to each vertex cell.
		m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
			for v := 0; v < g.N; v++ {
				send(machine.Coord{}, vt.At(v), regLab, int64(flat[v]))
			}
		})
		for v := 0; v < g.N; v++ {
			lab[v] = int64(flat[v])
		}
	}

	for i := 0; i < total; i++ {
		m.Del(et.At(i), regEdge)
	}
	for v := 0; v < g.N; v++ {
		m.Del(vt.At(v), regLab)
		labels[v] = int(lab[v])
	}
	return labels, executed, nil
}

// srcKey/dstKey/labKey order real records before pads.
func srcKey(v machine.Value) int64 {
	e := v.(edgeRec)
	if e.pad {
		return infInt64
	}
	return int64(e.src)
}

func dstKey(v machine.Value) int64 {
	e := v.(edgeRec)
	if e.pad {
		return infInt64
	}
	return int64(e.dst)
}

func labKey(v machine.Value) int64 {
	p := v.(vpair)
	if p.pad {
		return infInt64
	}
	return p.lab
}

func edgeBySrc(a, b machine.Value) bool { return srcKey(a) < srcKey(b) }
func edgeByDst(a, b machine.Value) bool { return dstKey(a) < dstKey(b) }
func pairByLab(a, b machine.Value) bool { return labKey(a) < labKey(b) }
