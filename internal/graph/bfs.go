package graph

import (
	"fmt"

	"repro/internal/collectives"
	"repro/internal/grid"
	"repro/internal/machine"
)

// BFS register names. The graph's own registers are namespaced "graph.",
// and the keyed pipeline's (core.Keyed) "keyed.", so the algorithms can
// share a machine with the primitives they call.
const (
	regMark  = "graph.mark"  // frontier marker delivered to a CSR segment head
	regLvl   = "graph.lvl"   // per-edge-cell segmented-broadcast value
	regHead  = "graph.head"  // segment head flag (CSR row starts)
	regVisit = "graph.visit" // discovered-level delivery to a vertex cell
)

// BFS runs a level-synchronous breadth-first search from src and returns
// the level of every vertex (-1 when unreachable).
//
// Layout: vertex cells occupy a power-of-two square at the origin
// (row-major, one PE per vertex); the CSR adjacency array occupies a
// power-of-two square to its right, one directed edge per PE in Z-order,
// with a static head flag on every CSR row start ("predefined input
// format" — placement is free, like the spmv triples).
//
// Each level is one frontier expansion built from the segmented-broadcast
// primitive: every frontier vertex sends one marker to its adjacency
// segment's head, a segmented scan with the First operator floods the
// marker across the segment (Lemma IV.3 costs: Θ(E) energy over the edge
// grid, O(log E) depth), and each marked edge cell delivers level+1 to its
// destination's vertex cell — concurrent deliveries carry the same value,
// so the machine's later-wins semantics keep the result deterministic.
//
// Composed costs for a graph with E = 2m directed edge cells and BFS depth
// (eccentricity) D: each directed edge scatters exactly once across the
// whole run and each vertex sends exactly one marker, so
//
//	Energy   = Θ(E·D)  for the per-level segmented scans
//	         + Θ(E·√E) for the one-shot marker/scatter traffic
//	Depth    = Θ(D·log E)   (levels are dependent; each is scan-dominated)
//	Distance = Θ(√E)
//
// On the 2D mesh (D = Θ(√n), m = Θ(n)) both energy terms are Θ(n^1.5) and
// depth is Θ(√n log n); on the power-law family (D = O(log n)) energy is
// Θ(m^1.5) and depth O(log² n).
func BFS(m *machine.Machine, g *Graph, src int) ([]int, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.N == 0 {
		return nil, nil
	}
	if src < 0 || src >= g.N {
		return nil, fmt.Errorf("graph: BFS source %d outside [0,%d)", src, g.N)
	}

	dist := make([]int, g.N)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	if len(g.Adj) == 0 {
		return dist, nil
	}

	// Vertex square at the origin, edge square to its right.
	vr := grid.Square(machine.Coord{}, grid.Pow2Side(g.N))
	vt := grid.RowMajor(vr)
	eside := grid.Pow2Side(len(g.Adj))
	er := vr.RightOf(eside, eside)
	et := grid.ZOrder(er)
	total := er.Size()

	// Static structure (free placement): head flags at CSR row starts and
	// on every pad cell past the adjacency array.
	heads := make([]bool, total)
	for v := 0; v < g.N; v++ {
		if g.Degree(v) > 0 {
			heads[g.Off[v]] = true
		}
	}
	for i := len(g.Adj); i < total; i++ {
		heads[i] = true
	}
	for i := 0; i < total; i++ {
		m.Set(et.At(i), regHead, heads[i])
	}

	frontier := []int{src}
	for lvl := 0; len(frontier) > 0; lvl++ {
		m.Phase("graph/bfs-level")
		// Frontier vertices mark their adjacency segment heads.
		m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
			for _, v := range frontier {
				if g.Degree(v) > 0 {
					send(vt.At(v), et.At(g.Off[v]), regMark, int64(lvl))
				}
			}
		})
		// Local: seed the scan register from the marker (-1 elsewhere),
		// then flood each marker across its segment.
		for i := 0; i < total; i++ {
			c := et.At(i)
			if v, ok := m.Lookup(c, regMark); ok {
				m.Set(c, regLvl, v)
				m.Del(c, regMark)
			} else {
				m.Set(c, regLvl, int64(-1))
			}
		}
		collectives.SegmentedScan(m, er, regLvl, regHead, collectives.First, int64(-1))
		// Marked edge cells deliver level+1 to their destination vertex.
		m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
			for _, v := range frontier {
				for i := g.Off[v]; i < g.Off[v+1]; i++ {
					c := et.At(i)
					if m.Get(c, regLvl).(int64) == int64(lvl) {
						send(c, vt.At(g.Adj[i]), regVisit, int64(lvl+1))
					}
				}
			}
		})
		// Host: collect the next frontier from the delivered visits.
		var next []int
		for _, v := range frontier {
			for _, w := range g.Neighbors(v) {
				if dist[w] >= 0 {
					continue
				}
				if got, ok := m.Lookup(vt.At(w), regVisit); ok && got.(int64) == int64(lvl+1) {
					dist[w] = lvl + 1
					next = append(next, w)
					m.Del(vt.At(w), regVisit)
				}
			}
		}
		frontier = next
	}

	for i := 0; i < total; i++ {
		c := et.At(i)
		m.Del(c, regLvl)
		m.Del(c, regHead)
	}
	return dist, nil
}
