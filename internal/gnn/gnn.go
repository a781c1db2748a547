// Package gnn implements a graph neural network forward pass on the
// Spatial Computer Model, the application the paper's introduction
// motivates: "graph neural networks with sort pooling layers [16], which
// rely on sorting as a critical operation for feature extraction."
//
// A model is a stack of mean-aggregation layers (each channel of the
// feature matrix is one SpMV against the degree-normalized adjacency —
// Section VIII's kernel), a ReLU (local computation, free in the model),
// and a SortPooling layer (Zhang et al., AAAI'18) that orders nodes by
// their last feature channel with the energy-optimal 2-D mergesort and
// keeps the top K rows. All communication runs on a machine.Machine, so a
// forward pass carries exact Spatial Computer Model costs.
package gnn

import (
	"cmp"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/spmv"
)

// Graph is a directed graph with weighted edges; node features attach at
// the model level.
type Graph struct {
	Nodes int
	Edges []Edge
}

// Edge is one directed edge u -> v with weight W.
type Edge struct {
	U, V int
	W    float64
}

// Validate checks node indices.
func (g Graph) Validate() error {
	for _, e := range g.Edges {
		if e.U < 0 || e.U >= g.Nodes || e.V < 0 || e.V >= g.Nodes {
			return fmt.Errorf("gnn: edge (%d,%d) outside %d nodes", e.U, e.V, g.Nodes)
		}
	}
	return nil
}

// normalizedAdjacency returns the mean-aggregation operator: entry (v, u) =
// w(u,v) / outdeg(u), so that multiplying a feature channel by it averages
// each node's incoming messages.
func (g Graph) normalizedAdjacency() spmv.Matrix {
	deg := make([]float64, g.Nodes)
	for _, e := range g.Edges {
		deg[e.U] += e.W
	}
	a := spmv.Matrix{N: g.Nodes}
	for _, e := range g.Edges {
		if deg[e.U] == 0 {
			continue
		}
		a.Entries = append(a.Entries, spmv.Entry{Row: e.V, Col: e.U, Val: e.W / deg[e.U]})
	}
	return a
}

// Model is a sort-pooling GNN: Layers rounds of aggregate+ReLU, then
// SortPooling keeping TopK nodes ordered by the last feature channel.
type Model struct {
	Layers int
	TopK   int
}

// Features is a channel-major feature matrix: Features[c][v] is channel c
// of node v.
type Features [][]float64

// Clone deep-copies a feature matrix.
func (f Features) Clone() Features {
	out := make(Features, len(f))
	for c := range f {
		out[c] = append([]float64(nil), f[c]...)
	}
	return out
}

// Forward runs the model on machine m and returns the pooled TopK x C
// feature block (row r = the node with the r-th highest score) and the
// indices of the selected nodes, highest score first. Aggregations and the
// pooling sort are spatial; ReLU and the final gather are local
// computation.
func (md Model) Forward(m *machine.Machine, g Graph, feats Features) ([][]float64, []int, error) {
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	if len(feats) == 0 {
		return nil, nil, fmt.Errorf("gnn: no feature channels")
	}
	for c := range feats {
		if len(feats[c]) != g.Nodes {
			return nil, nil, fmt.Errorf("gnn: channel %d has %d values for %d nodes", c, len(feats[c]), g.Nodes)
		}
	}
	if md.TopK < 1 || md.TopK > g.Nodes {
		return nil, nil, fmt.Errorf("gnn: TopK %d out of range [1,%d]", md.TopK, g.Nodes)
	}

	adj := g.normalizedAdjacency()
	h := feats.Clone()
	for l := 0; l < md.Layers; l++ {
		for c := range h {
			out, err := spmv.Multiply(m, adj, h[c])
			if err != nil {
				return nil, nil, err
			}
			// ReLU: local computation at the node PEs (free in the model).
			for v := range out {
				if out[v] < 0 {
					out[v] = 0
				}
			}
			h[c] = out
		}
	}

	// SortPooling: order nodes by the last channel (ties by node id) and
	// keep the TopK highest-scoring nodes.
	nodeOrder := sortPoolOrder(m, h[len(h)-1])
	picked := nodeOrder[:md.TopK]
	pooled := make([][]float64, md.TopK)
	for r, v := range picked {
		pooled[r] = make([]float64, len(h))
		for c := range h {
			pooled[r][c] = h[c][v]
		}
	}
	return pooled, picked, nil
}

// Reference computes the same forward pass entirely on the host, for
// verification.
func (md Model) Reference(g Graph, feats Features) ([][]float64, []int, error) {
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	adj := g.normalizedAdjacency()
	h := feats.Clone()
	for l := 0; l < md.Layers; l++ {
		for c := range h {
			out := adj.MultiplyDense(h[c])
			for v := range out {
				if out[v] < 0 {
					out[v] = 0
				}
			}
			h[c] = out
		}
	}
	score := h[len(h)-1]
	idx := make([]int, g.Nodes)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return scored{score[idx[a]], idx[a]}.before(scored{score[idx[b]], idx[b]}, g.Nodes)
	})
	picked := idx[:md.TopK]
	pooled := make([][]float64, md.TopK)
	for r, v := range picked {
		pooled[r] = make([]float64, len(h))
		for c := range h {
			pooled[r][c] = h[c][v]
		}
	}
	return pooled, picked, nil
}

// scored is one SortPooling entry: a node id and its score.
type scored struct {
	s float64
	v int
}

// before is SortPooling's order over n real nodes: real nodes ahead of
// the padding slots (ids from n on), then descending score with NaN after
// every number, then node id. Unlike a bare x.s > y.s it is a strict weak
// ordering when a score is NaN.
func (x scored) before(y scored, n int) bool {
	if (x.v < n) != (y.v < n) {
		return x.v < n
	}
	if c := cmp.Compare(x.s, y.s); c != 0 {
		return c > 0
	}
	return x.v < y.v
}

// sortPoolOrder sorts node ids in SortPooling's order (scored.before) with
// the energy-optimal 2-D mergesort and returns the order.
func sortPoolOrder(m *machine.Machine, score []float64) []int {
	n := len(score)
	side := grid.Pow2Side(n)
	r := grid.Square(machine.Coord{}, side)
	t := grid.RowMajor(r)
	for i := 0; i < side*side; i++ {
		e := scored{s: math.Inf(-1), v: i}
		if i < n {
			e = scored{s: score[i], v: i}
		}
		m.Set(t.At(i), "gnn.s", e)
	}
	desc := func(a, b machine.Value) bool { return a.(scored).before(b.(scored), n) }
	core.MergeSort(m, r, "gnn.s", desc)
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = m.Get(t.At(i), "gnn.s").(scored).v
		m.Del(t.At(i), "gnn.s")
	}
	for i := n; i < side*side; i++ {
		m.Del(t.At(i), "gnn.s")
	}
	return out
}
