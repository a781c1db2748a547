package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/service"
)

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

// runByName renders one quick experiment end to end through the shared
// registry on a runner built from opts.
func runByName(t *testing.T, name string, csv bool, opts ...harness.Option) {
	t.Helper()
	e, ok := experiments.ByName(name)
	if !ok {
		t.Fatalf("experiment %q not registered", name)
	}
	experiments.Run(harness.New(1, opts...), experiments.Config{Quick: true, CSV: csv, Out: io.Discard}, e)
}

// Smoke tests: the cheap experiments must run to completion without
// panicking (correctness of the numbers is covered by the package tests the
// experiments are built from).
func TestCollectivesExperimentSmoke(t *testing.T) {
	runByName(t, "collectives", false, harness.WithWorkers(2))
}

func TestReduceAblationSmoke(t *testing.T) {
	runByName(t, "reduce-ablation", true, harness.WithWorkers(2))
}

func TestScanAblationSmoke(t *testing.T) {
	runByName(t, "scan-ablation", false, harness.WithWorkers(2))
}

func TestTreefixExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("treefix sweep skipped in -short mode")
	}
	runByName(t, "treefix", false, harness.WithWorkers(2))
}

func TestUnknownExperimentExitCode(t *testing.T) {
	out, errOut, code := runCLI(t, "-exp", "no-such-experiment")
	if code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut, "unknown experiment") || !strings.Contains(errOut, "no-such-experiment") {
		t.Errorf("stderr = %q, want unknown-experiment diagnostic", errOut)
	}
	// The diagnostic enumerates the runnable names so a typo is one glance
	// from its fix, not a second -list invocation.
	for _, e := range experiments.All() {
		if !strings.Contains(errOut, e.Name) {
			t.Errorf("stderr does not offer experiment %q: %q", e.Name, errOut)
		}
	}
	if out != "" {
		t.Errorf("stdout = %q, want empty (validation happens before any sweep runs)", out)
	}
}

func TestBadFlagExitCode(t *testing.T) {
	if _, _, code := runCLI(t, "-no-such-flag"); code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
}

func TestListExperiments(t *testing.T) {
	out, _, code := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit code = %d", code)
	}
	for _, e := range experiments.All() {
		if !strings.Contains(out, e.Name) {
			t.Errorf("-list output missing %q", e.Name)
		}
	}
}

// TestParallelOutputIdentical is the harness's end-to-end determinism
// guarantee at the CLI boundary: for a fixed -seed the full byte stream —
// text tables, CSV and JSON alike — must not depend on -parallel.
func TestParallelOutputIdentical(t *testing.T) {
	cases := [][]string{
		{"-exp", "collectives", "-quick"},
		{"-exp", "scan-ablation", "-quick", "-csv"},
		{"-exp", "reduce-ablation", "-quick", "-json"},
	}
	for _, base := range cases {
		name := strings.Join(base, " ")
		seq, _, code := runCLI(t, append([]string{"-parallel", "1", "-seed", "7"}, base...)...)
		if code != 0 {
			t.Fatalf("%s sequential: exit %d", name, code)
		}
		par, _, code := runCLI(t, append([]string{"-parallel", "8", "-seed", "7"}, base...)...)
		if code != 0 {
			t.Fatalf("%s parallel: exit %d", name, code)
		}
		if seq != par {
			t.Errorf("%s: -parallel 1 and -parallel 8 outputs differ\n--- seq ---\n%s\n--- par ---\n%s", name, seq, par)
		}
		if len(seq) == 0 {
			t.Errorf("%s: empty output", name)
		}
	}
}

func TestJSONOutputShape(t *testing.T) {
	out, _, code := runCLI(t, "-exp", "reduce-ablation", "-quick", "-json", "-parallel", "4")
	if code != 0 {
		t.Fatalf("exit code = %d", code)
	}
	if !strings.Contains(out, `{"header":["n",`) {
		t.Errorf("-json output missing JSON table:\n%s", out)
	}
}

// TestComponentsTableIsRegistryRows: the components tables print the
// rows the conformance gate checks. Their inputs are randomized per
// (seed, sweep, point), so cell-for-cell equality with a direct registry
// run of the bound sweeps at the same seed shows the tables read those
// sweeps rather than measuring inputs of their own.
func TestComponentsTableIsRegistryRows(t *testing.T) {
	out, errOut, code := runCLI(t, "-exp", "components", "-quick", "-csv", "-seed", "3", "-parallel", "2")
	if code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, errOut)
	}
	reg := experiments.BoundSweeps(true)
	r := harness.New(3, harness.WithWorkers(2))
	var want []string
	for _, sweep := range []string{"bounds/all-pairs", "bounds/rank-select", "bounds/merge"} {
		rows, err := reg.Run(r, sweep)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			// Rendered through a one-row table, so each cell is formatted
			// the way the experiment prints it: n, energy, depth, distance.
			cells := analysis.NewTable("n", "energy", "depth", "distance")
			cells.AddRow(row[:4]...)
			want = append(want, strings.Split(strings.TrimSpace(cells.CSV()), "\n")[1])
		}
	}
	var got []string
	for _, line := range strings.Split(out, "\n") {
		if len(line) > 0 && line[0] >= '0' && line[0] <= '9' && strings.Count(line, ",") == 3 {
			got = append(got, line)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("components rows differ from the registry's bound sweep rows\ngot  %q\nwant %q", got, want)
	}
}

// TestAllExperimentsCriticalPath runs every experiment in quick mode with
// per-measurement critical-path verification: every message must extend a
// chain its sender holds by one hop, and each measurement's replayed
// message count, energy, Depth, Distance and per-PE clocks must equal the
// machine's. A mismatch panics out of the sweep. The check replays clocks
// in O(touched PEs) state, so the sweep needs no more memory than an
// unchecked one.
func TestAllExperimentsCriticalPath(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("full experiment sweep skipped under the race detector (sink concurrency is covered by the harness tests)")
	}
	for _, e := range experiments.All() {
		t.Run(e.Name, func(t *testing.T) {
			runByName(t, e.Name, false, harness.WithWorkers(2), harness.WithCriticalPathCheck())
		})
	}
}

// TestTraceAndHeatmapFlags drives the CLI end to end with -trace and
// -heatmap and validates the artifacts: parseable trace_event JSON with
// send slices, and a heatmap CSV with the documented header.
func TestTraceAndHeatmapFlags(t *testing.T) {
	dir := t.TempDir()
	traceFile := dir + "/trace.json"
	heatFile := dir + "/heat.csv"
	_, errOut, code := runCLI(t, "-exp", "collectives", "-quick", "-parallel", "1",
		"-trace", traceFile, "-heatmap", heatFile)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errOut)
	}

	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	sends := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			sends++
		}
	}
	if sends == 0 {
		t.Error("trace contains no send slices")
	}

	csvRaw, err := os.ReadFile(heatFile)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csvRaw)), "\n")
	if lines[0] != "row,col,sends,recvs,send_traffic,recv_traffic,east,west,south,north" {
		t.Errorf("heatmap header = %q", lines[0])
	}
	if len(lines) < 2 {
		t.Error("heatmap CSV has no data rows")
	}
}

// TestTraceFlagBadPath: an uncreatable trace file must fail cleanly.
// TestCacheWarmRunByteIdentical: -cache must leave stdout byte-identical
// between a cold and a fully warmed run, with hit accounting on stderr.
func TestCacheWarmRunByteIdentical(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-exp", "collectives", "-quick", "-parallel", "2", "-cache", dir}
	cold, _, code := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("cold exit = %d", code)
	}
	warm, errWarm, code := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("warm exit = %d", code)
	}
	if cold != warm {
		t.Errorf("warm output differs from cold:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	if !strings.Contains(errWarm, " 0 misses") {
		t.Errorf("warm stderr does not report an all-hit run: %s", errWarm)
	}
}

// TestServerSweepMode drives -server/-sweep against an in-process service
// engine: the printed rows must match a direct harness run of the sweep.
func TestServerSweepMode(t *testing.T) {
	reg := &harness.Registry{}
	reg.MustRegister(harness.SweepSpec{Name: "syn/cubes", Points: 3,
		Point: func(i int, env *harness.Env) []harness.Row {
			n := 1 << uint(i)
			return harness.One(n, n*n*n)
		}})
	eng := service.New(service.Config{
		Workers: 1,
		Sweeps:  func(bool) *harness.Registry { return reg },
	})
	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()

	out, errOut, code := runCLI(t, "-server", srv.URL, "-sweep", "syn/cubes")
	if code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, errOut)
	}
	if want := "1\t1\n2\t8\n4\t64\n"; out != want {
		t.Errorf("rows = %q, want %q", out, want)
	}

	if _, errOut, code = runCLI(t, "-server", srv.URL, "-sweep", "syn/nope"); code != 2 {
		t.Errorf("unknown sweep: exit = %d (stderr: %s)", code, errOut)
	}
	if _, errOut, code = runCLI(t, "-server", srv.URL); code != 2 {
		t.Errorf("missing -sweep: exit = %d (stderr: %s)", code, errOut)
	}
	if _, _, code = runCLI(t, "-sweep", "syn/cubes"); code != 2 {
		t.Errorf("-sweep without -server: exit = %d", code)
	}
}

func TestSweepListMode(t *testing.T) {
	out, _, code := runCLI(t, "-server", "ignored", "-sweep", "list")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "bounds/scan") {
		t.Errorf("sweep list missing bounds/scan:\n%s", out)
	}
}

func TestTraceFlagBadPath(t *testing.T) {
	_, errOut, code := runCLI(t, "-exp", "collectives", "-quick",
		"-trace", t.TempDir()+"/no/such/dir/trace.json")
	if code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
	if !strings.Contains(errOut, "trace:") {
		t.Errorf("stderr = %q, want trace diagnostic", errOut)
	}
}
