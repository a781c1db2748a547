// Package graph builds application-level graph analytics from the paper's
// energy-optimal primitives: BFS on a level-synchronous frontier driven by
// segmented scans over CSR adjacency, connected components by min-label
// hooking contracted with the treefix primitive (internal/tree), PageRank
// as iterated SpMV (internal/spmv, the mapped Z-order path), and triangle
// counting by sorting and merge-intersecting on the sorting-network family
// (internal/sortnet). Each algorithm runs on a *machine.Machine and its
// costs compose from the Table I rows the primitives are certified to —
// the composed Θ-bounds are registered as claims in internal/bounds.
//
// Graphs are undirected and simple: FromEdges drops self-loops and
// duplicate edges, so every workload the generators emit is in the
// "predefined input format" the paper assumes. The host derives static
// structure (CSR offsets, orientations, Euler tours of hook forests) the
// way internal/tree derives its tour — input preprocessing — while every
// data movement that depends on on-grid values is paid for in messages.
package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/machine"
)

// Graph is an undirected simple graph in CSR form: the neighbors of vertex
// v are Adj[Off[v]:Off[v+1]], sorted ascending. Both directions of every
// edge are stored, so len(Adj) == 2*M().
type Graph struct {
	N   int
	Off []int
	Adj []int
}

// M returns the undirected edge count.
func (g *Graph) M() int { return len(g.Adj) / 2 }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return g.Off[v+1] - g.Off[v] }

// Neighbors returns v's adjacency slice (shared storage; do not mutate).
func (g *Graph) Neighbors(v int) []int { return g.Adj[g.Off[v]:g.Off[v+1]] }

// Validate checks CSR shape invariants.
func (g *Graph) Validate() error {
	if g.N < 0 {
		return fmt.Errorf("graph: negative vertex count %d", g.N)
	}
	if len(g.Off) != g.N+1 {
		return fmt.Errorf("graph: %d offsets for %d vertices", len(g.Off), g.N)
	}
	for v := 0; v < g.N; v++ {
		if g.Off[v] > g.Off[v+1] {
			return fmt.Errorf("graph: offsets decrease at vertex %d", v)
		}
	}
	for _, w := range g.Adj {
		if w < 0 || w >= g.N {
			return fmt.Errorf("graph: neighbor %d outside [0,%d)", w, g.N)
		}
	}
	return nil
}

// FromEdges builds the CSR graph on n vertices from an edge list,
// dropping self-loops and duplicate edges (either orientation).
func FromEdges(n int, edges [][2]int) *Graph {
	deg := make([]int, n)
	type e struct{ u, v int }
	uniq := make(map[e]bool, len(edges))
	kept := make([]e, 0, len(edges))
	for _, p := range edges {
		u, v := p[0], p[1]
		if u == v || u < 0 || v < 0 || u >= n || v >= n {
			continue
		}
		if u > v {
			u, v = v, u
		}
		k := e{u, v}
		if uniq[k] {
			continue
		}
		uniq[k] = true
		kept = append(kept, k)
		deg[u]++
		deg[v]++
	}
	g := &Graph{N: n, Off: make([]int, n+1)}
	for v := 0; v < n; v++ {
		g.Off[v+1] = g.Off[v] + deg[v]
	}
	g.Adj = make([]int, g.Off[n])
	pos := make([]int, n)
	copy(pos, g.Off[:n])
	for _, k := range kept {
		g.Adj[pos[k.u]] = k.v
		pos[k.u]++
		g.Adj[pos[k.v]] = k.u
		pos[k.v]++
	}
	for v := 0; v < n; v++ {
		sort.Ints(g.Adj[g.Off[v]:g.Off[v+1]])
	}
	return g
}

// Mesh2D returns the side x side 4-neighbor lattice (n = side² vertices,
// diameter Θ(side) = Θ(√n)) — the polynomial-diameter family of the graph
// sweeps. Vertex (r,c) has index r*side+c.
func Mesh2D(side int) *Graph {
	var edges [][2]int
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v := r*side + c
			if c+1 < side {
				edges = append(edges, [2]int{v, v + 1})
			}
			if r+1 < side {
				edges = append(edges, [2]int{v, v + side})
			}
		}
	}
	return FromEdges(side*side, edges)
}

// PowerLaw returns a connected RMAT-ish power-law graph on n vertices: a
// random-ancestor backbone (vertex i attaches to a uniform j < i, giving
// connectivity and O(log n) diameter with high probability) plus ~n extra
// edges whose endpoints are skewed toward low vertex ids (u^2-style
// preferential attachment), producing the heavy-tailed degree profile of
// R-MAT generators. Deterministic given rng — the sweeps seed it through
// the harness's per-point FNV scheme.
func PowerLaw(n int, rng *rand.Rand) *Graph {
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{i, rng.Intn(i)})
	}
	skew := func() int {
		f := rng.Float64()
		return int(f * f * float64(n))
	}
	for k := 0; k < n; k++ {
		u, v := rng.Intn(n), skew()
		edges = append(edges, [2]int{u, v})
	}
	return FromEdges(n, edges)
}

// --- shared helpers for the on-grid layouts -------------------------------

// minInt64 is the collectives.Op for int64 minima.
func minInt64(a, b machine.Value) machine.Value {
	if a.(int64) < b.(int64) {
		return a
	}
	return b
}

// infInt64 is the identity of minInt64: larger than any vertex id.
const infInt64 = int64(math.MaxInt64)
