package graph

import (
	"math"

	"repro/internal/collectives"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/order"
	"repro/internal/sortnet"
)

// Triangle-counting registers.
const (
	regKey = "graph.key" // composite (pair, tag) sort key
	regCnt = "graph.cnt" // per-cell triangle indicator for the reduce
)

// Triangles counts the triangles of g with the classic oriented
// edge/wedge merge-intersection, executed as one data-oblivious sorting-
// network pass (the sortnet family) plus a segmented broadcast and a
// reduce:
//
// The host orients every edge from its lower-(degree, id) endpoint to the
// higher one — input preprocessing, like the CSR offsets — so each vertex
// has out-degree O(√m) and every triangle has exactly one apex (the vertex
// with two outgoing edges). For each apex the out-neighbor pairs become
// "wedge" records; a triangle exists exactly when a wedge's endpoint pair
// also occurs as an oriented edge. Both record kinds are encoded into one
// float64 key, 2·pair + tag with tag 0 for edges and 1 for wedges, so one
// bitonic sort along the Z-order track groups every pair's edge record
// (if any) immediately before its wedges. A segmented First-broadcast
// then hands each wedge its group's first key — even iff the pair is an
// edge — and a quadrant reduce sums the matches at the subgrid origin.
//
// Being a sorting network, the bitonic pass is oblivious to the values
// and runs on the machine's counting-only fast path when batching is on.
//
// Composed costs for S = edges + wedges = O(m^1.5) records: the bitonic
// sort costs Θ(S^1.5 log S) energy and O(log² S) depth (Lemma V.4), which
// dominates the Θ(S) scan and reduce — so Θ(m^2.25 log m) energy
// worst-case, and Θ(m^1.5 log m) on bounded-degree families like the 2D
// mesh where wedges are O(m).
func Triangles(m *machine.Machine, g *Graph) (int64, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	if g.N == 0 || len(g.Adj) == 0 {
		return 0, nil
	}

	// Host preprocessing: orient by (degree, id) and enumerate wedges.
	rank := func(v int) int64 { return int64(g.Degree(v))<<32 | int64(v) }
	nn := float64(g.N)
	var keys []float64
	out := make([][]int, g.N)
	for u := 0; u < g.N; u++ {
		for _, w := range g.Neighbors(u) {
			if rank(u) < rank(w) {
				out[u] = append(out[u], w)
			}
		}
	}
	pairKey := func(v, w int) float64 {
		if rank(w) < rank(v) {
			v, w = w, v
		}
		return float64(v)*nn + float64(w)
	}
	for u := 0; u < g.N; u++ {
		for _, w := range out[u] {
			keys = append(keys, 2*pairKey(u, w)) // edge record, tag 0
		}
		for i := 0; i < len(out[u]); i++ {
			for j := i + 1; j < len(out[u]); j++ {
				keys = append(keys, 2*pairKey(out[u][i], out[u][j])+1) // wedge, tag 1
			}
		}
	}
	if len(keys) == 0 {
		return 0, nil
	}

	// One record per PE on a power-of-two square, pads at +Inf.
	ur := grid.Square(machine.Coord{}, grid.Pow2Side(len(keys)))
	ut := grid.ZOrder(ur)
	total := ur.Size()
	for i := 0; i < total; i++ {
		v := math.Inf(1)
		if i < len(keys) {
			v = keys[i]
		}
		m.Set(ut.At(i), regKey, v)
	}

	// Sort along the Z-order track: each pair's records become contiguous,
	// edge (even key) before its wedges (odd keys).
	m.Phase("graph/tri-sort")
	sortnet.Sort(m, ut, regKey, total, order.Float64)

	// Group by pair and broadcast each group's first key.
	m.Phase("graph/tri-match")
	recs := core.NewKeyed(m, ur, grid.TrackZOrder, regKey)
	recs.ElectHeads(func(v machine.Value) int64 {
		k := v.(float64)
		if math.IsInf(k, 1) {
			return infInt64
		}
		return int64(k) / 2
	})
	for i := 0; i < total; i++ {
		c := ut.At(i)
		m.Set(c, core.KeyedVal, m.Get(c, regKey))
	}
	recs.Scan(collectives.First, math.Inf(1))

	// A wedge whose group starts with an edge record closes a triangle.
	for i := 0; i < total; i++ {
		c := ut.At(i)
		k := m.Get(c, regKey).(float64)
		first := m.Get(c, core.KeyedVal).(float64)
		cnt := 0.0
		if !math.IsInf(k, 1) && int64(k)%2 == 1 && int64(first)%2 == 0 {
			cnt = 1.0
		}
		m.Set(c, regCnt, cnt)
		m.Del(c, core.KeyedVal)
		m.Del(c, core.KeyedHead)
		m.Del(c, regKey)
	}
	m.Phase("graph/tri-count")
	collectives.Reduce(m, ur, regCnt, collectives.Add)
	totalV := m.Get(ur.Origin, regCnt).(float64)
	grid.Clear(m, ut, regCnt, total)
	return int64(math.Round(totalV)), nil
}
