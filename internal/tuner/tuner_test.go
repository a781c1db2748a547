package tuner

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/grid"
	"repro/internal/harness"
	"repro/internal/mapping"
	"repro/internal/simcache"
)

func mp(track grid.TrackKind, arity int) mapping.Mapping {
	return mapping.Mapping{Track: track, Arity: arity, Tile: mapping.TileSquare, Sort: mapping.SortBitonic}
}

// TestParetoPruning: dominated candidates drop, incomparable ones stay,
// exact cost ties all survive.
func TestParetoPruning(t *testing.T) {
	a := Candidate{Mapping: mp(grid.TrackRowMajor, 2), Energy: 100, Depth: 10}
	b := Candidate{Mapping: mp(grid.TrackZOrder, 2), Energy: 50, Depth: 20}    // incomparable with a
	c := Candidate{Mapping: mp(grid.TrackHilbert, 2), Energy: 100, Depth: 20}  // dominated by both
	d := Candidate{Mapping: mp(grid.TrackRowMajor, 4), Energy: 100, Depth: 10} // ties a exactly

	front := Pareto([]Candidate{a, b, c, d})
	want := []Candidate{a, b, d}
	if !reflect.DeepEqual(front, want) {
		t.Errorf("Pareto = %+v, want %+v", front, want)
	}

	// A single candidate is its own front.
	if got := Pareto([]Candidate{c}); !reflect.DeepEqual(got, []Candidate{c}) {
		t.Errorf("singleton Pareto = %+v", got)
	}

	// Strict domination on one axis with equality on the other prunes.
	e := Candidate{Mapping: mp(grid.TrackZOrder, 4), Energy: 50, Depth: 10}
	if got := Pareto([]Candidate{a, e}); !reflect.DeepEqual(got, []Candidate{e}) {
		t.Errorf("Pareto kept a candidate dominated via one-axis tie: %+v", got)
	}
}

// TestMinSelectorsTieBreak: equal costs resolve to the earliest
// candidate, so verdicts are deterministic given the canonical
// candidate order.
func TestMinSelectorsTieBreak(t *testing.T) {
	first := Candidate{Mapping: mp(grid.TrackHilbert, 2), Energy: 10, Depth: 10}
	second := Candidate{Mapping: mp(grid.TrackRowMajor, 2), Energy: 10, Depth: 10}
	cands := []Candidate{first, second}
	for name, got := range map[string]Candidate{
		"MinEnergy": MinEnergy(cands),
		"MinDepth":  MinDepth(cands),
		"MinEDP":    MinEDP(cands),
	} {
		if got.Mapping != first.Mapping {
			t.Errorf("%s tie broke to %v, want first candidate %v", name, got.Mapping, first.Mapping)
		}
	}
}

// TestMinEDPOnParetoFront: for positive costs the EDP winner survives
// Pareto pruning.
func TestMinEDPOnParetoFront(t *testing.T) {
	cands := []Candidate{
		{Mapping: mp(grid.TrackRowMajor, 2), Energy: 100, Depth: 4},
		{Mapping: mp(grid.TrackZOrder, 2), Energy: 40, Depth: 8},
		{Mapping: mp(grid.TrackHilbert, 2), Energy: 200, Depth: 9},
	}
	best := MinEDP(cands)
	for _, p := range Pareto(cands) {
		if p.Mapping == best.Mapping {
			return
		}
	}
	t.Errorf("MinEDP winner %v not on the Pareto front", best.Mapping)
}

// TestWorkloadsWellFormed: every workload carries the baseline mapping,
// canonically ordered valid candidates, and quick sizes that prefix the
// full sizes (so quick rows are a subset of full rows).
func TestWorkloadsWellFormed(t *testing.T) {
	if len(Workloads()) < 3 {
		t.Fatalf("want >=3 tunable workloads, got %d", len(Workloads()))
	}
	for _, w := range Workloads() {
		sorted := append([]mapping.Mapping(nil), w.Candidates...)
		mapping.SortMappings(sorted)
		if !reflect.DeepEqual(sorted, w.Candidates) {
			t.Errorf("%s: candidates not in canonical order", w.Name)
		}
		hasBase := false
		seen := map[mapping.Mapping]bool{}
		for _, mpp := range w.Candidates {
			if err := mpp.Validate(); err != nil {
				t.Errorf("%s: invalid candidate %v: %v", w.Name, mpp, err)
			}
			if seen[mpp] {
				t.Errorf("%s: duplicate candidate %v", w.Name, mpp)
			}
			seen[mpp] = true
			if mpp == mapping.Default() {
				hasBase = true
			}
		}
		if !hasBase {
			t.Errorf("%s: baseline mapping.Default() not a candidate", w.Name)
		}
		quick, full := w.Sizes(true), w.Sizes(false)
		if len(full) < len(quick) || !reflect.DeepEqual(full[:len(quick)], quick) {
			t.Errorf("%s: quick sizes %v not a prefix of full sizes %v", w.Name, quick, full)
		}
	}
	if _, ok := ByName("scan"); !ok {
		t.Error("ByName(scan) missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) resolved")
	}
}

func tuneJSON(t *testing.T, r *harness.Runner, name string) []byte {
	t.Helper()
	w, ok := ByName(name)
	if !ok {
		t.Fatalf("workload %s missing", name)
	}
	b, err := json.Marshal(Tune(r, true, w))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTuneDeterministicAcrossWorkers: the tuner verdict is byte-identical
// for any worker count.
func TestTuneDeterministicAcrossWorkers(t *testing.T) {
	seq := tuneJSON(t, harness.New(1, harness.WithWorkers(1)), "scan")
	par := tuneJSON(t, harness.New(1, harness.WithWorkers(8), harness.WithLargestFirst()), "scan")
	if string(seq) != string(par) {
		t.Errorf("verdict differs across worker counts:\n1: %s\n8: %s", seq, par)
	}
}

// TestTuneDeterministicAcrossCache: a warm rerun serves every point from
// the cache and returns the byte-identical verdict.
func TestTuneDeterministicAcrossCache(t *testing.T) {
	cache := simcache.New(nil, 0)
	cold := tuneJSON(t, harness.New(1, harness.WithWorkers(4), harness.WithCache(cache)), "scan")
	st := cache.Stats()
	if st.Hits != 0 || st.Misses == 0 {
		t.Fatalf("cold run: %d hits, %d misses", st.Hits, st.Misses)
	}
	warm := tuneJSON(t, harness.New(1, harness.WithWorkers(4), harness.WithCache(cache)), "scan")
	if string(cold) != string(warm) {
		t.Errorf("verdict differs cold vs warm:\ncold: %s\nwarm: %s", cold, warm)
	}
	st = cache.Stats()
	if st.Hits != st.Misses {
		t.Errorf("warm run not fully cached: %d hits, want %d", st.Hits, st.Misses)
	}
}

// TestTuneFindsPaperScanMapping: the quick scan verdict picks the
// Z-order (quadtree) scan — the paper's energy-optimal layout — over the
// row-major baseline at every size, with the baseline present for the
// comparison.
func TestTuneFindsPaperScanMapping(t *testing.T) {
	w, _ := ByName("scan")
	res := Tune(harness.New(1, harness.WithWorkers(4)), true, w)[0]
	if len(res.Sizes) != len(w.Sizes(true)) {
		t.Fatalf("got %d sizes, want %d", len(res.Sizes), len(w.Sizes(true)))
	}
	for _, sz := range res.Sizes {
		if got := sz.MinEDP.Mapping.Track; got != grid.TrackZOrder {
			t.Errorf("n=%d: EDP-minimal track %v, want zorder", sz.N, got)
		}
		base, ok := Baseline(sz.Candidates)
		if !ok {
			t.Fatalf("n=%d: no baseline candidate", sz.N)
		}
		if sz.MinEDP.EDP() >= base.EDP() {
			t.Errorf("n=%d: tuned EDP %.0f not below baseline %.0f", sz.N, sz.MinEDP.EDP(), base.EDP())
		}
		if sz.Best(ObjEnergy) != sz.MinEnergy || sz.Best(ObjDepth) != sz.MinDepth || sz.Best(ObjEDP) != sz.MinEDP {
			t.Errorf("n=%d: Best dispatch inconsistent", sz.N)
		}
	}
}

func TestParseObjective(t *testing.T) {
	for _, s := range []string{"energy", "depth", "edp"} {
		if _, err := ParseObjective(s); err != nil {
			t.Errorf("ParseObjective(%s): %v", s, err)
		}
	}
	if _, err := ParseObjective("joules"); err == nil {
		t.Error("ParseObjective accepted joules")
	}
}
