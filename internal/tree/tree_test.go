package tree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/collectives"
	"repro/internal/grid"
	"repro/internal/machine"
)

// hostRootfix and hostLeaffix are straightforward references.
func hostRootfix(t Tree, values []float64) []float64 {
	out := make([]float64, t.Nodes())
	var walk func(v int, acc float64)
	ch := t.children()
	walk = func(v int, acc float64) {
		acc += values[v]
		out[v] = acc
		for _, c := range ch[v] {
			walk(c, acc)
		}
	}
	walk(t.Root(), 0)
	return out
}

func hostLeaffix(t Tree, values []float64) []float64 {
	out := make([]float64, t.Nodes())
	ch := t.children()
	var walk func(v int) float64
	walk = func(v int) float64 {
		s := values[v]
		for _, c := range ch[v] {
			s += walk(c)
		}
		out[v] = s
		return s
	}
	walk(t.Root())
	return out
}

func randomTree(rng *rand.Rand, n int) Tree {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		p[i] = rng.Intn(i) // parent among earlier nodes: always a tree
	}
	return Tree{Parent: p}
}

func checkClose(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		d := got[i] - want[i]
		if d > 1e-9 || d < -1e-9 {
			t.Fatalf("%s[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
}

func TestTreefixOnShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := map[string]Tree{
		"path16":     Path(16),
		"balanced31": Balanced(31),
		"star": {Parent: func() []int {
			p := make([]int, 20)
			return p // all children of node 0; parent[0] = 0 = root
		}()},
		"random100": randomTree(rng, 100),
		"single":    {Parent: []int{0}},
	}
	for name, tr := range shapes {
		values := make([]float64, tr.Nodes())
		for i := range values {
			values[i] = rng.Float64()*10 - 5
		}
		m := machine.New()
		gotR, err := RootfixSum(m, tr, values)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkClose(t, name+"/rootfix", gotR, hostRootfix(tr, values))

		m = machine.New()
		gotL, err := LeaffixSum(m, tr, values)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkClose(t, name+"/leaffix", gotL, hostLeaffix(tr, values))
	}
}

func TestTreefixQuick(t *testing.T) {
	f := func(seed int64, raw []int8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := len(raw)
		if n == 0 {
			return true
		}
		if n > 50 {
			n = 50
		}
		tr := randomTree(rng, n)
		values := make([]float64, n)
		for i := 0; i < n; i++ {
			values[i] = float64(raw[i])
		}
		m := machine.New()
		gotR, err := RootfixSum(m, tr, values)
		if err != nil {
			return false
		}
		wantR := hostRootfix(tr, values)
		for i := range wantR {
			if d := gotR[i] - wantR[i]; d > 1e-9 || d < -1e-9 {
				return false
			}
		}
		m = machine.New()
		gotL, err := LeaffixSum(m, tr, values)
		if err != nil {
			return false
		}
		wantL := hostLeaffix(tr, values)
		for i := range wantL {
			if d := gotL[i] - wantL[i]; d > 1e-9 || d < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestTreefixLinearEnergy(t *testing.T) {
	// Section II-A: the tree-algorithm treefix costs Theta(n log n) on a
	// path; the Euler-tour + optimal-scan route costs Theta(n) — check
	// linear growth and the log-factor gap against the tree-scan baseline.
	energyAt := func(n int) float64 {
		tr := Path(n)
		values := make([]float64, n)
		for i := range values {
			values[i] = 1
		}
		m := machine.New()
		if _, err := RootfixSum(m, tr, values); err != nil {
			t.Fatal(err)
		}
		return float64(m.Metrics().Energy)
	}
	if r := energyAt(16384) / energyAt(4096); r > 5 {
		t.Errorf("treefix energy quadrupling ratio %.2f not linear", r)
	}
	// Path rootfix via the binary-tree scan over the same length costs a
	// growing log factor more (the [38] baseline on a path).
	baseline := func(n int) float64 {
		m := machine.New()
		side := grid.Pow2Side(n)
		r := grid.Square(machine.Coord{}, side)
		tk := grid.RowMajor(r)
		for i := 0; i < side*side; i++ {
			m.Set(tk.At(i), "v", 1.0)
		}
		collectives.ScanTrack(m, tk, "v", collectives.Add, 0.0)
		return float64(m.Metrics().Energy)
	}
	g1 := baseline(4096) / energyAt(4096)
	g2 := baseline(16384) / energyAt(16384)
	if g2 <= g1 {
		t.Errorf("treefix gap vs tree-scan baseline did not grow: %.2f -> %.2f", g1, g2)
	}
}

func TestTreefixDepthLogarithmic(t *testing.T) {
	depthAt := func(n int) int64 {
		tr := Balanced(n)
		values := make([]float64, n)
		m := machine.New()
		if _, err := LeaffixSum(m, tr, values); err != nil {
			t.Fatal(err)
		}
		return m.Metrics().Depth
	}
	if d := depthAt(4095); d > 40 {
		t.Errorf("leaffix depth %d not logarithmic", d)
	}
}

func TestTreeValidate(t *testing.T) {
	bad := []Tree{
		{Parent: []int{1, 0}},    // two-cycle, no root
		{Parent: []int{0, 1}},    // two roots
		{Parent: []int{0, 5}},    // out of range
		{Parent: []int{0, 2, 1}}, // cycle off the root
		{Parent: []int{}},        // empty
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("case %d: invalid tree accepted", i)
		}
	}
	if err := Path(10).Validate(); err != nil {
		t.Errorf("path rejected: %v", err)
	}
	if err := Balanced(15).Validate(); err != nil {
		t.Errorf("balanced rejected: %v", err)
	}
}

func TestTreefixErrors(t *testing.T) {
	m := machine.New()
	if _, err := RootfixSum(m, Path(4), []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := LeaffixSum(m, Tree{Parent: []int{1, 0}}, []float64{1, 2}); err == nil {
		t.Error("invalid tree accepted")
	}
}
