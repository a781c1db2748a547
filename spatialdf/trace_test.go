package spatialdf

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/trace"
)

// checkPaths asserts the critical-path contract of a recorder that
// observed one operation with Metrics met: the depth path has exactly
// Depth hops forming a connected chain with telescoping depth annotations,
// and the distance path's hop distances sum to Distance.
func checkPaths(t *testing.T, cp *CriticalPath, met Metrics) {
	t.Helper()
	dp := cp.DepthPath()
	if int64(len(dp)) != met.Depth {
		t.Fatalf("DepthPath length %d, Depth %d", len(dp), met.Depth)
	}
	for i, e := range dp {
		if e.DepthBefore != int64(i) || e.DepthAfter != int64(i+1) {
			t.Fatalf("hop %d: depth %d -> %d, want %d -> %d", i, e.DepthBefore, e.DepthAfter, i, i+1)
		}
		if i > 0 && e.From != dp[i-1].To {
			t.Fatalf("hop %d departs %v, previous arrived %v", i, e.From, dp[i-1].To)
		}
	}
	xp := cp.DistancePath()
	var sum int64
	for i, e := range xp {
		sum += e.Dist
		if e.DistAfter-e.DistBefore != e.Dist {
			t.Fatalf("distance hop %d: %d -> %d with dist %d", i, e.DistBefore, e.DistAfter, e.Dist)
		}
		if i > 0 && e.From != xp[i-1].To {
			t.Fatalf("distance hop %d departs %v, previous arrived %v", i, e.From, xp[i-1].To)
		}
	}
	if sum != met.Distance {
		t.Fatalf("DistancePath sums to %d, Distance %d", sum, met.Distance)
	}
}

func randVals(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	return vals
}

// TestCriticalPathPerOp exercises the critical-path contract on every
// facade operation, each observed by its own recorder.
func TestCriticalPathPerOp(t *testing.T) {
	vals := randVals(50, 3)
	a := Matrix{N: 8, Entries: []MatrixEntry{{0, 1, 1}, {3, 2, -2}, {5, 5, 4}, {7, 0, 0.5}, {2, 6, 3}}}
	heads := make([]bool, len(vals))
	for i := range heads {
		heads[i] = i%7 == 0
	}
	perm := rand.New(rand.NewSource(4)).Perm(len(vals))
	for _, op := range []struct {
		name string
		run  func(rec Option) (Metrics, error)
	}{
		{"Sort", func(rec Option) (Metrics, error) { _, met := Sort(vals, rec); return met, nil }},
		{"SortBitonic", func(rec Option) (Metrics, error) { _, met := SortBitonic(vals, rec); return met, nil }},
		{"SortMesh", func(rec Option) (Metrics, error) { _, met := SortMesh(vals, rec); return met, nil }},
		{"SortIndices", func(rec Option) (Metrics, error) { _, met := SortIndices(vals, rec); return met, nil }},
		{"Select", func(rec Option) (Metrics, error) { _, met, err := Select(vals, 17, rec); return met, err }},
		{"Median", func(rec Option) (Metrics, error) { _, met, err := Median(vals, rec); return met, err }},
		{"Permute", func(rec Option) (Metrics, error) { _, met, err := Permute(vals, perm, rec); return met, err }},
		{"SegmentedScan", func(rec Option) (Metrics, error) { _, met, err := SegmentedScan(vals, heads, rec); return met, err }},
		{"Scan", func(rec Option) (Metrics, error) { _, met := Scan(vals, rec); return met, nil }},
		{"ScanTree", func(rec Option) (Metrics, error) { _, met := ScanTree(vals, rec); return met, nil }},
		{"ScanSequential", func(rec Option) (Metrics, error) { _, met := ScanSequential(vals, rec); return met, nil }},
		{"Reduce", func(rec Option) (Metrics, error) { _, met := Reduce(vals, rec); return met, nil }},
		{"BroadcastCost", func(rec Option) (Metrics, error) { return BroadcastCost(30, rec), nil }},
		{"SpMV", func(rec Option) (Metrics, error) { _, met, err := SpMV(a, randVals(8, 5), rec); return met, err }},
		{"RootfixSum", func(rec Option) (Metrics, error) {
			_, met, err := Tree{Parent: []int{0, 0, 0, 1, 1, 2}}.RootfixSum(randVals(6, 6), rec)
			return met, err
		}},
	} {
		t.Run(op.name, func(t *testing.T) {
			cp := NewCriticalPath()
			met, err := op.run(WithTraceSink(cp))
			if err != nil {
				t.Fatal(err)
			}
			checkPaths(t, cp, met)
		})
	}
}

// TestCriticalPathAbsent: a path is recorded only when asked for. A
// default operation's machine carries no sink, and a recorder that saw no
// message returns no path.
func TestCriticalPathAbsent(t *testing.T) {
	if s := buildConfig(nil).newMachine().Sink(); s != nil {
		t.Errorf("default machine carries sink %T", s)
	}
	cp := NewCriticalPath()
	if met := BroadcastCost(1, WithTraceSink(cp)); met.Messages != 0 {
		t.Fatalf("broadcast to one PE sent %d messages", met.Messages)
	}
	if cp.DepthPath() != nil || cp.DistancePath() != nil {
		t.Error("recorder without events returned a critical path")
	}
}

// TestDefaultSortAllocation: without a recorder an operation stores none
// of its messages, so a default Sort of 4 096 keys (3.5 M messages)
// allocates about 22 MB; recording every message took 847 MB.
func TestDefaultSortAllocation(t *testing.T) {
	vals := randVals(4096, 12)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Sort(vals)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<20 {
		t.Errorf("default Sort of %d keys allocated %d MB, want < 64", len(vals), got>>20)
	}
}

// TestWithTraceSinkEvents checks the structured event stream: one event per
// message, the operation's phase stamped on every event, and cumulative
// energy matching the metric.
func TestWithTraceSinkEvents(t *testing.T) {
	var events []Event
	_, met := Sort(randVals(20, 9), WithTraceSink(trace.SinkFunc(func(e *Event) {
		events = append(events, *e)
	})))
	if int64(len(events)) != met.Messages {
		t.Fatalf("sink saw %d events, metrics report %d messages", len(events), met.Messages)
	}
	last := events[len(events)-1]
	if last.EnergyCum != met.Energy {
		t.Errorf("final event energy %d, metric %d", last.EnergyCum, met.Energy)
	}
	for _, e := range events {
		if e.Phase != "sort/merge" {
			t.Fatalf("event carries phase %q, want %q", e.Phase, "sort/merge")
		}
	}
}

// TestWithTraceSinkHeatmap runs a built-in sink through the facade and
// cross-checks its totals against the returned metrics.
func TestWithTraceSinkHeatmap(t *testing.T) {
	hm := trace.NewHeatmap()
	_, met, err := SegmentedScan(randVals(30, 11), make([]bool, 30), WithTraceSink(hm))
	if err != nil {
		t.Fatal(err)
	}
	if hm.Events() != met.Messages {
		t.Errorf("heatmap observed %d events, metrics report %d messages", hm.Events(), met.Messages)
	}
	var sends, traffic int64
	_, cells := hm.Grid()
	for _, row := range cells {
		for _, c := range row {
			sends += c.Sends
			traffic += c.SendTraffic
		}
	}
	if sends != met.Messages {
		t.Errorf("heatmap counted %d sends, metrics report %d messages", sends, met.Messages)
	}
	if traffic != met.Energy {
		t.Errorf("heatmap counted %d send traffic, metrics report energy %d", traffic, met.Energy)
	}
}
