package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/tuner"
)

// TestListWorkloads: -list names every tunable workload.
func TestListWorkloads(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, w := range []string{"scan", "reduce", "sort", "spmv"} {
		if !strings.Contains(out.String(), w) {
			t.Errorf("-list missing workload %s:\n%s", w, out.String())
		}
	}
}

// TestJSONDeterministic: two identical invocations produce byte-identical
// verdict documents, and the document carries the request parameters.
func TestJSONDeterministic(t *testing.T) {
	args := []string{"-quick", "-workload", "scan", "-objective", "edp", "-json", "-seed", "7"}
	var a, b, errb bytes.Buffer
	if code := run(args, &a, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if code := run(args, &b, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("repeat -json runs differ")
	}
	var rep report
	if err := json.Unmarshal(a.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if rep.Seed != 7 || !rep.Quick || rep.Objective != "edp" || len(rep.Workloads) != 1 {
		t.Errorf("report meta wrong: %+v", rep)
	}
	if len(rep.Workloads[0].Sizes) == 0 || len(rep.Workloads[0].Sizes[0].Pareto) == 0 {
		t.Errorf("report carries no verdicts: %+v", rep.Workloads[0])
	}
}

// TestTableOutput: the default table renders one row per (workload, n)
// with a baseline comparison.
func TestTableOutput(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-quick", "-workload", "reduce"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "reduce") || !strings.Contains(out.String(), "baseline edp") {
		t.Errorf("table output unexpected:\n%s", out.String())
	}
}

// TestBadFlags: unknown workloads and objectives exit 2 without tuning.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "fft"},
		{"-objective", "joules"},
		{"-not-a-flag"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

// TestCandidatesAreRegistryRows: the -json candidates of every workload
// are the registry rows of its bounds/tuned-<w> sweep — the rows the
// tuner/* claims judge. Seed 3 draws inputs on which the randomized
// mergesort and SpMV candidates' costs depend on the input.
func TestCandidatesAreRegistryRows(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-quick", "-json", "-seed", "3"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(rep.Workloads) != len(tuner.Workloads()) {
		t.Fatalf("tuned %d workloads, want %d", len(rep.Workloads), len(tuner.Workloads()))
	}
	reg := experiments.BoundSweeps(true)
	r := harness.New(3)
	for _, res := range rep.Workloads {
		w, _ := tuner.ByName(res.Workload)
		rows, err := reg.Run(r, "bounds/tuned-"+res.Workload)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(res.Sizes) {
			t.Fatalf("%s: %d sizes, registry has %d rows", res.Workload, len(res.Sizes), len(rows))
		}
		for i, sz := range res.Sizes {
			base, _ := tuner.Baseline(sz.Candidates)
			got := harness.Row{sz.N, sz.MinEDP.EDP(), base.EDP()}
			for k, c := range sz.Candidates {
				if c.Mapping != w.Candidates[k] {
					t.Errorf("%s n=%d: candidate %d is %v, want %v", res.Workload, sz.N, k, c.Mapping, w.Candidates[k])
				}
				got = append(got, c.Energy, c.Depth)
			}
			if !reflect.DeepEqual(got, rows[i]) {
				t.Errorf("%s n=%d: -json cells %v, registry row %v", res.Workload, sz.N, got, rows[i])
			}
		}
	}
}
