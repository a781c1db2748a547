package experiments

import (
	"testing"

	"repro/internal/harness"
)

// TestDeclaredSweepsResolve is the wiring test between the renderers and
// the registry, without simulating anything: every sweep an experiment
// declares must be registered in both the quick and the full registry.
func TestDeclaredSweepsResolve(t *testing.T) {
	for _, quick := range []bool{true, false} {
		reg := BoundSweeps(quick)
		for _, e := range All() {
			if len(e.Sweeps) == 0 {
				t.Errorf("experiment %s declares no sweeps", e.Name)
			}
			for _, name := range e.Sweeps {
				if _, ok := reg.Lookup(name); !ok {
					t.Errorf("quick=%v: experiment %s reads unregistered sweep %q", quick, e.Name, name)
				}
			}
		}
	}
}

// TestRendererReadsOnlyDeclaredSweeps: a renderer that reads a sweep its
// experiment did not declare panics instead of silently measuring it.
func TestRendererReadsOnlyDeclaredSweeps(t *testing.T) {
	p := &page{sweeps: map[string]*harness.Sweep{}, declared: []string{"bounds/scan"}}
	defer func() {
		if recover() == nil {
			t.Error("reading an undeclared sweep did not panic")
		}
	}()
	p.rows("bounds/sort")
}

// TestBoundSweepsSetupAllocs bounds the registry's set-up cost, which
// every boundcheck, spatialbench and daemon job pays before its first
// point: the tuner workloads are built once and their candidates'
// canonical strings rendered once per sort.
func TestBoundSweepsSetupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	if got := testing.AllocsPerRun(20, func() { BoundSweeps(true) }); got > 300 {
		t.Errorf("BoundSweeps(true) makes %.0f allocations, want at most 300", got)
	}
}
