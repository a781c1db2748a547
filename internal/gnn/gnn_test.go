package gnn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/machine"
)

func randomGraph(rng *rand.Rand, nodes, edges int) Graph {
	g := Graph{Nodes: nodes}
	for i := 0; i < edges; i++ {
		g.Edges = append(g.Edges, Edge{
			U: rng.Intn(nodes), V: rng.Intn(nodes), W: rng.Float64() + 0.1,
		})
	}
	return g
}

func randomFeatures(rng *rand.Rand, channels, nodes int) Features {
	f := make(Features, channels)
	for c := range f {
		f[c] = make([]float64, nodes)
		for v := range f[c] {
			f[c][v] = rng.NormFloat64()
		}
	}
	return f
}

func TestForwardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ nodes, edges, channels, layers, topk int }{
		{16, 48, 2, 1, 4},
		{32, 128, 3, 2, 8},
		{64, 200, 2, 3, 16},
	} {
		g := randomGraph(rng, tc.nodes, tc.edges)
		feats := randomFeatures(rng, tc.channels, tc.nodes)
		md := Model{Layers: tc.layers, TopK: tc.topk}

		m := machine.New()
		pooled, picked, err := md.Forward(m, g, feats)
		if err != nil {
			t.Fatal(err)
		}
		wantPooled, wantPicked, err := md.Reference(g, feats)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantPicked {
			if picked[i] != wantPicked[i] {
				t.Fatalf("%+v: picked[%d] = %d, want %d", tc, i, picked[i], wantPicked[i])
			}
		}
		for r := range wantPooled {
			for c := range wantPooled[r] {
				if math.Abs(pooled[r][c]-wantPooled[r][c]) > 1e-9 {
					t.Fatalf("%+v: pooled[%d][%d] = %v, want %v", tc, r, c, pooled[r][c], wantPooled[r][c])
				}
			}
		}
		if m.Metrics().Energy == 0 {
			t.Error("forward pass reported zero energy")
		}
	}
}

func TestForwardCostDominatedByAggregation(t *testing.T) {
	// Layers multiply the SpMV cost; check energy grows roughly linearly
	// with layer count.
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(rng, 32, 128)
	feats := randomFeatures(rng, 2, 32)
	energy := func(layers int) int64 {
		m := machine.New()
		if _, _, err := (Model{Layers: layers, TopK: 8}).Forward(m, g, feats); err != nil {
			t.Fatal(err)
		}
		return m.Metrics().Energy
	}
	e1, e3 := energy(1), energy(3)
	if e3 < 2*e1 || e3 > 4*e1 {
		t.Errorf("3-layer energy %d not ~3x the 1-layer %d", e3, e1)
	}
}

func TestForwardValidation(t *testing.T) {
	g := Graph{Nodes: 4, Edges: []Edge{{U: 0, V: 9, W: 1}}}
	m := machine.New()
	if _, _, err := (Model{Layers: 1, TopK: 2}).Forward(m, g, randomFeatures(rand.New(rand.NewSource(3)), 1, 4)); err == nil {
		t.Error("invalid edge accepted")
	}
	g = Graph{Nodes: 4}
	if _, _, err := (Model{Layers: 1, TopK: 9}).Forward(m, g, randomFeatures(rand.New(rand.NewSource(3)), 1, 4)); err == nil {
		t.Error("TopK > nodes accepted")
	}
	if _, _, err := (Model{Layers: 1, TopK: 2}).Forward(m, g, nil); err == nil {
		t.Error("empty features accepted")
	}
	if _, _, err := (Model{Layers: 1, TopK: 2}).Forward(m, g, Features{{1, 2}}); err == nil {
		t.Error("short channel accepted")
	}
}

func TestIsolatedNodesAndSinks(t *testing.T) {
	// Nodes with no out-edges must not produce NaNs; nodes with no
	// in-edges aggregate to zero.
	g := Graph{Nodes: 4, Edges: []Edge{{U: 0, V: 1, W: 1}}}
	feats := Features{{1, 2, 3, 4}}
	md := Model{Layers: 1, TopK: 4}
	m := machine.New()
	pooled, picked, err := md.Forward(m, g, feats)
	if err != nil {
		t.Fatal(err)
	}
	wantPooled, wantPicked, _ := md.Reference(g, feats)
	for i := range wantPicked {
		if picked[i] != wantPicked[i] || pooled[i][0] != wantPooled[i][0] {
			t.Fatalf("picked %v pooled %v, want %v %v", picked, pooled, wantPicked, wantPooled)
		}
	}
}

func TestSortPoolOrderDeterministicTies(t *testing.T) {
	m := machine.New()
	order := sortPoolOrder(m, []float64{5, 7, 5, 7, 5})
	want := []int{1, 3, 0, 2, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestSortPoolOrdersNaNLast: a NaN score sorts after every number and
// ahead of the padding slots, in Forward's sort and Reference's alike.
func TestSortPoolOrdersNaNLast(t *testing.T) {
	nan := math.NaN()
	feats := Features{{3, nan, 1, 2, 0, nan, -1, 5}}
	md := Model{Layers: 0, TopK: 8}
	want := []int{7, 0, 3, 2, 4, 6, 1, 5}
	_, picked, err := md.Forward(machine.New(), Graph{Nodes: 8}, feats)
	if err != nil {
		t.Fatal(err)
	}
	_, ref, err := md.Reference(Graph{Nodes: 8}, feats)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(picked, want) || !slices.Equal(ref, want) {
		t.Errorf("Forward picks %v, Reference %v, want %v", picked, ref, want)
	}
}
