package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/bounds"
	"repro/internal/harness"
	"repro/internal/service"
)

var update = flag.Bool("update", false, "rewrite golden files")

// synthProvider returns closed-form sweeps and claims so exit codes are
// testable without simulation: one claim that holds and one that cannot.
func synthProvider(pass bool) provider {
	return func(quick bool) (*harness.Registry, []bounds.Claim) {
		reg := &harness.Registry{}
		reg.MustRegister(harness.SweepSpec{Name: "syn/quadratic", Points: 4,
			Point: func(i int, env *harness.Env) []harness.Row {
				n := float64(int(256) << uint(2*i))
				return harness.One(n, n*n)
			}})
		want := 2.0 // the sweep's true exponent
		if !pass {
			want = 1.0 // a Θ(n) claim against n² data: must fail
		}
		return reg, []bounds.Claim{{
			ID: "syn/exponent", Source: "test", Stated: "synthetic",
			Kind: bounds.Exponent, Sweep: "syn/quadratic", Col: 1, Want: want, Tol: 0.1,
		}}
	}
}

func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		prov provider
		want int
	}{
		{"all claims hold", []string{"-quick"}, synthProvider(true), 0},
		{"out-of-tolerance exponent", []string{"-quick"}, synthProvider(false), 1},
		{"failure in json mode", []string{"-quick", "-json"}, synthProvider(false), 1},
		{"quick and full conflict", []string{"-quick", "-full"}, synthProvider(true), 2},
		{"unknown flag", []string{"-bogus"}, synthProvider(true), 2},
		{"no claims match -run", []string{"-run", "nope/"}, synthProvider(true), 2},
		{"list is not a run", []string{"-list"}, synthProvider(false), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if got := run(tc.args, &out, &errOut, tc.prov); got != tc.want {
				t.Errorf("exit = %d, want %d (stderr: %s)", got, tc.want, errOut.String())
			}
		})
	}
}

// TestRunFilterListsClaimIDs: a -run prefix that matches nothing must name
// every registered claim ID on stderr, so the caller can correct the typo
// without a separate -list invocation.
func TestRunFilterListsClaimIDs(t *testing.T) {
	var out, errOut bytes.Buffer
	if got := run([]string{"-run", "nope/"}, &out, &errOut, synthProvider(true)); got != 2 {
		t.Fatalf("exit = %d, want 2", got)
	}
	if !strings.Contains(errOut.String(), "syn/exponent") {
		t.Errorf("stderr does not list the registered claim IDs: %s", errOut.String())
	}
}

// writeVerdictDoc renders a canonical conformance document with the given
// claim verdicts, standing in for a stored nightly artifact.
func writeVerdictDoc(t *testing.T, path string, verdicts map[string]bool) {
	t.Helper()
	var rep bounds.Report
	ids := make([]string, 0, len(verdicts))
	for id := range verdicts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		rep.Verdicts = append(rep.Verdicts, bounds.Verdict{
			ID: id, Pass: verdicts[id], Detail: fmt.Sprintf("detail for %s (pass=%v)", id, verdicts[id]),
		})
	}
	data, err := bounds.MarshalReportJSON(rep, bounds.RunMeta{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCompareMode covers the nightly regression gate: only a PASS→FAIL
// flip fails the comparison; new, removed, and fixed claims are reported
// but benign.
func TestCompareMode(t *testing.T) {
	dir := t.TempDir()
	oldDoc := filepath.Join(dir, "old.json")
	writeVerdictDoc(t, oldDoc, map[string]bool{"a/ok": true, "a/broken": false, "a/gone": true})

	cases := []struct {
		name     string
		verdicts map[string]bool
		want     int
		output   []string
	}{
		{"unchanged", map[string]bool{"a/ok": true, "a/broken": false, "a/gone": true},
			0, []string{"no conformance regressions"}},
		{"regression", map[string]bool{"a/ok": false, "a/broken": false, "a/gone": true},
			1, []string{"REGRESSION:  a/ok", "was:", "now:", "1 claim(s) regressed"}},
		{"fixed and grown", map[string]bool{"a/ok": true, "a/broken": true, "a/new": false},
			0, []string{"fixed:       a/broken", "new claim:   a/new (FAIL)", "removed:     a/gone (was PASS)", "no conformance regressions"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			newDoc := filepath.Join(dir, "new.json")
			writeVerdictDoc(t, newDoc, tc.verdicts)
			var out, errOut bytes.Buffer
			if got := run([]string{"-compare", oldDoc, newDoc}, &out, &errOut, synthProvider(true)); got != tc.want {
				t.Fatalf("exit = %d, want %d (stderr: %s)", got, tc.want, errOut.String())
			}
			for _, want := range tc.output {
				if !strings.Contains(out.String(), want) {
					t.Errorf("diff output missing %q:\n%s", want, out.String())
				}
			}
		})
	}
}

// TestCompareModeUsage: bad arity and unreadable documents are usage
// errors (exit 2), never silent successes.
func TestCompareModeUsage(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	writeVerdictDoc(t, good, map[string]bool{"a/ok": true})
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-compare", good},
		{"-compare", good, good, good},
		{"-compare", good, filepath.Join(dir, "missing.json")},
		{"-compare", bad, good},
	} {
		var out, errOut bytes.Buffer
		if got := run(args, &out, &errOut, synthProvider(true)); got != 2 {
			t.Errorf("%v: exit = %d, want 2 (stderr: %s)", args, got, errOut.String())
		}
	}
}

// TestCompareRealDocuments round-trips the real -json output through
// -compare: a run compared against itself reports no regressions.
func TestCompareRealDocuments(t *testing.T) {
	var doc, errOut bytes.Buffer
	if got := run([]string{"-quick", "-json"}, &doc, &errOut, synthProvider(true)); got != 0 {
		t.Fatalf("exit = %d (stderr: %s)", got, errOut.String())
	}
	path := filepath.Join(t.TempDir(), "run.json")
	if err := os.WriteFile(path, doc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if got := run([]string{"-compare", path, path}, &out, &errOut, synthProvider(true)); got != 0 {
		t.Fatalf("self-compare exit = %d\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "no conformance regressions") {
		t.Errorf("self-compare output:\n%s", out.String())
	}
}

func TestFailureVerdictInOutput(t *testing.T) {
	var out, errOut bytes.Buffer
	if got := run([]string{"-quick"}, &out, &errOut, synthProvider(false)); got != 1 {
		t.Fatalf("exit = %d, want 1", got)
	}
	if !strings.Contains(out.String(), "FAIL") || !strings.Contains(out.String(), "0/1 claims hold") {
		t.Errorf("table output missing failure verdict:\n%s", out.String())
	}
}

// TestJSONRunMetadata: the JSON document carries the run shape — the
// maxpoints cap and per-sweep row counts — so nightly artifacts are
// self-describing about their coverage.
func TestJSONRunMetadata(t *testing.T) {
	var out, errOut bytes.Buffer
	if got := run([]string{"-quick", "-json", "-maxpoints", "2"}, &out, &errOut, synthProvider(true)); got != 0 {
		t.Fatalf("exit = %d (stderr: %s)", got, errOut.String())
	}
	var doc struct {
		MaxPoints int `json:"maxpoints"`
		Sweeps    []struct {
			Name    string `json:"name"`
			Rows    int    `json:"rows"`
			Skipped int    `json:"skipped"`
		} `json:"sweeps"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if doc.MaxPoints != 2 {
		t.Errorf("maxpoints = %d, want 2", doc.MaxPoints)
	}
	if len(doc.Sweeps) != 1 || doc.Sweeps[0].Name != "syn/quadratic" || doc.Sweeps[0].Rows != 2 {
		t.Errorf("sweeps = %+v, want syn/quadratic with 2 rows", doc.Sweeps)
	}
}

// TestTimeoutSkipsPoints: an expired -timeout budget skips every
// unstarted point; the run reports the truncation on stderr and the
// claim fails on the empty evidence instead of passing vacuously.
func TestTimeoutSkipsPoints(t *testing.T) {
	var out, errOut bytes.Buffer
	got := run([]string{"-quick", "-timeout", "1ns"}, &out, &errOut, synthProvider(true))
	if got != 1 {
		t.Fatalf("exit = %d, want 1 (no rows → claim cannot hold); stderr: %s", got, errOut.String())
	}
	if !strings.Contains(errOut.String(), "skipped") {
		t.Errorf("stderr does not report the skipped points: %s", errOut.String())
	}
}

// TestCacheWarmRunByteIdentical: the -cache contract — a second identical
// run serves every point from the cache and still prints the exact same
// report bytes, with hit/miss accounting on stderr only.
func TestCacheWarmRunByteIdentical(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-quick", "-json", "-cache", dir}
	var cold, warm, errCold, errWarm bytes.Buffer
	if got := run(args, &cold, &errCold, synthProvider(true)); got != 0 {
		t.Fatalf("cold exit = %d (stderr: %s)", got, errCold.String())
	}
	if got := run(args, &warm, &errWarm, synthProvider(true)); got != 0 {
		t.Fatalf("warm exit = %d (stderr: %s)", got, errWarm.String())
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Errorf("warm run output differs from cold:\ncold: %s\nwarm: %s", cold.String(), warm.String())
	}
	if !strings.Contains(errCold.String(), "cache: 0 hits, 4 misses") {
		t.Errorf("cold stderr missing miss accounting: %s", errCold.String())
	}
	if !strings.Contains(errWarm.String(), "cache: 4 hits, 0 misses") {
		t.Errorf("warm stderr does not show an all-hit run: %s", errWarm.String())
	}
}

// TestServerModeMatchesLocal: `boundcheck -server` must print the same
// -json document (and exit code) as a local run with the daemon's pool
// settings — the verdict bytes are produced by the same
// bounds.MarshalReportJSON on both paths.
func TestServerModeMatchesLocal(t *testing.T) {
	for _, pass := range []bool{true, false} {
		prov := synthProvider(pass)
		eng := service.New(service.Config{
			Workers: 2,
			Sweeps:  func(quick bool) *harness.Registry { reg, _ := prov(quick); return reg },
			Claims:  func() []bounds.Claim { _, claims := prov(false); return claims },
		})
		srv := httptest.NewServer(eng.Handler())

		var local, remote, errOut bytes.Buffer
		localCode := run([]string{"-quick", "-json", "-shards", "1", "-batch=false"}, &local, &errOut, prov)
		remoteCode := run([]string{"-server", srv.URL, "-quick", "-json"}, &remote, &errOut, prov)
		srv.Close()

		want := 0
		if !pass {
			want = 1
		}
		if localCode != want || remoteCode != want {
			t.Errorf("pass=%t: exit local=%d remote=%d, want %d (stderr: %s)",
				pass, localCode, remoteCode, want, errOut.String())
		}
		if !bytes.Equal(local.Bytes(), remote.Bytes()) {
			t.Errorf("pass=%t: server document differs from local run:\nlocal:  %s\nserver: %s",
				pass, local.String(), remote.String())
		}
	}
}

// TestGoldenJSON pins the machine-readable output format: boundcheck -json
// over the quick scan sweep at seed 1 is byte-deterministic (floats are
// rounded %.4g strings), so docs generators and CI consumers can rely on
// it. Regenerate with `go test ./cmd/boundcheck -run Golden -update`.
func TestGoldenJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick scan sweep")
	}
	var out, errOut bytes.Buffer
	// -shards 1: the document records the shard count, which otherwise
	// defaults to GOMAXPROCS; rows do not depend on it.
	code := run([]string{"-quick", "-json", "-shards", "1", "-run", "table1/scan"}, &out, &errOut, mainProvider)
	if code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, errOut.String())
	}
	golden := filepath.Join("testdata", "scan_quick.json")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("JSON output drifted from %s (rerun with -update if intentional)\ngot:\n%s\nwant:\n%s",
			golden, out.Bytes(), want)
	}
}
