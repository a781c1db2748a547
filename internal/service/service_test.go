package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bounds"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/simcache"
)

// synthSweeps builds a registry of fast closed-form sweeps, so service
// tests (and the spatiald -race smoke test) exercise the full pipeline
// without minutes of simulation. perPoint > 0 adds a delay to every
// point, for tests that need sweeps to overlap in time.
func synthSweeps(perPoint time.Duration) func(quick bool) *harness.Registry {
	return func(quick bool) *harness.Registry {
		points := 6
		if quick {
			points = 3
		}
		reg := &harness.Registry{}
		reg.MustRegister(harness.SweepSpec{Name: "syn/quadratic", Points: points,
			Point: func(i int, env *harness.Env) []harness.Row {
				if perPoint > 0 {
					time.Sleep(perPoint)
				}
				n := float64(int(64) << uint(2*i))
				return harness.One(n, n*n)
			},
			Cost: func(i int) float64 { return float64(int(1) << uint(2*i)) }})
		reg.MustRegister(harness.SweepSpec{Name: "syn/linear", Points: points,
			Point: func(i int, env *harness.Env) []harness.Row {
				if perPoint > 0 {
					time.Sleep(perPoint)
				}
				n := float64(int(64) << uint(2*i))
				return harness.One(n, 3*n+env.Rng.Float64())
			}})
		return reg
	}
}

func synthClaims() []bounds.Claim {
	return []bounds.Claim{
		{ID: "syn/quadratic/exp", Source: "test", Stated: "Θ(n²)",
			Kind: bounds.Exponent, Sweep: "syn/quadratic", Col: 1, Want: 2.0, Tol: 0.1},
		{ID: "syn/linear/exp", Source: "test", Stated: "Θ(n)",
			Kind: bounds.Exponent, Sweep: "syn/linear", Col: 1, Want: 1.0, Tol: 0.1},
	}
}

func testEngine(t *testing.T, mutate func(*Config)) (*Engine, *Client) {
	t.Helper()
	cfg := Config{
		Workers:      2,
		Cache:        simcache.New(simcache.Memory(), 0),
		CacheVersion: "test",
		Sweeps:       synthSweeps(0),
		Claims:       synthClaims,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	eng := New(cfg)
	srv := httptest.NewServer(eng.Handler())
	t.Cleanup(srv.Close)
	return eng, &Client{Base: srv.URL}
}

func waitDone(t *testing.T, c *Client, id string) JobInfo {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	info, err := c.Wait(ctx, id, 5*time.Millisecond, nil)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return info
}

func TestSweepJobLifecycle(t *testing.T) {
	_, c := testEngine(t, nil)
	id, err := c.SubmitSweep(SweepRequest{Name: "syn/quadratic", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, c, id)
	if info.Status != StatusDone {
		t.Fatalf("job = %+v", info)
	}
	if info.Progress.Done != 3 || info.Progress.Total != 3 {
		t.Errorf("progress = %+v, want 3/3", info.Progress)
	}
	data, err := c.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	var res SweepResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Name != "syn/quadratic" || res.Seed != 1 || len(res.Rows) != 3 {
		t.Errorf("result = %+v", res)
	}
	// The rows must equal a direct harness run of the same spec.
	reg := synthSweeps(0)(true)
	direct, err := reg.Run(harness.New(1, harness.WithWorkers(1)), "syn/quadratic")
	if err != nil {
		t.Fatal(err)
	}
	directJSON, _ := json.Marshal(direct)
	gotJSON, _ := json.Marshal(res.Rows)
	if !bytes.Equal(directJSON, gotJSON) {
		t.Errorf("served rows diverge from a direct run:\n got  %s\n want %s", gotJSON, directJSON)
	}
}

func TestSweepJobErrors(t *testing.T) {
	_, c := testEngine(t, nil)
	if _, err := c.SubmitSweep(SweepRequest{Name: "syn/nope"}); err == nil {
		t.Error("unknown sweep accepted")
	}
	if _, err := c.SubmitSweep(SweepRequest{}); err == nil {
		t.Error("nameless sweep accepted")
	}
	if _, err := c.Job("j999"); err == nil {
		t.Error("unknown job did not 404")
	}
	if _, err := c.SubmitBoundcheck(BoundcheckRequest{Run: "zzz/"}); err == nil {
		t.Error("empty claim filter accepted")
	}
}

// TestOversizedBodyRejected: a submission body beyond maxRequestBytes gets a
// 413 and creates no job; the daemon reads no further than the cap.
func TestOversizedBodyRejected(t *testing.T) {
	eng, c := testEngine(t, nil)
	body := `{"name": "syn/quadratic", "quick": true, "backend": "` + strings.Repeat("x", 2*maxRequestBytes) + `"}`
	for _, path := range []string{"/v1/jobs/sweep", "/v1/jobs/boundcheck"} {
		resp, err := http.Post(c.url(path), "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body got HTTP %d, want %d", path, resp.StatusCode, http.StatusRequestEntityTooLarge)
		}
	}
	if got := eng.Snapshot().Jobs.Submitted; got != 0 {
		t.Errorf("oversized bodies created %d jobs", got)
	}
}

// TestRunnersEvictedAfterFlights: a daemon serving many seeds holds a
// runner only while a flight runs on it, and rows_simulated still counts
// the rows of the runners it dropped.
func TestRunnersEvictedAfterFlights(t *testing.T) {
	eng, c := testEngine(t, nil)
	const k = 5
	for seed := int64(1); seed <= k; seed++ {
		id, err := c.SubmitSweep(SweepRequest{Name: "syn/quadratic", Quick: true, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if info := waitDone(t, c, id); info.Status != StatusDone {
			t.Fatalf("seed %d: job = %+v", seed, info)
		}
	}
	eng.mu.Lock()
	idle := len(eng.runners)
	eng.mu.Unlock()
	if idle != 0 {
		t.Errorf("%d runners left after every flight finished, want 0", idle)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.RowsSimulated != 3*k {
		t.Errorf("rows_simulated = %d, want %d (3 quick rows at each of %d seeds)", m.RowsSimulated, 3*k, k)
	}
}

// TestBoundcheckJobMatchesDirectCheck: the daemon's conformance document
// must be byte-identical to bounds.Check + MarshalReportJSON run in
// process with the same parameters — the property that lets a client
// treat server verdicts and local verdicts interchangeably.
func TestBoundcheckJobMatchesDirectCheck(t *testing.T) {
	_, c := testEngine(t, nil)
	id, err := c.SubmitBoundcheck(BoundcheckRequest{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if info := waitDone(t, c, id); info.Status != StatusDone {
		t.Fatalf("job = %+v", info)
	}
	got, err := c.Result(id)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := bounds.Check(harness.New(7, harness.WithWorkers(2)),
		synthSweeps(0)(true), synthClaims(), bounds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := bounds.MarshalReportJSON(rep, bounds.RunMeta{Quick: true, Seed: 7, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("server document diverges from direct check:\n got  %s\n want %s", got, want)
	}
}

// TestWarmRepeatIsAllCacheHits: the second identical submission must be
// answered entirely from the cache — same bytes, zero extra simulation.
func TestWarmRepeatIsAllCacheHits(t *testing.T) {
	eng, c := testEngine(t, nil)
	first, err := c.SubmitBoundcheck(BoundcheckRequest{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if info := waitDone(t, c, first); info.CacheHits != 0 {
		t.Errorf("cold job reported %d hits", info.CacheHits)
	}
	cold, _ := c.Result(first)
	simulated := eng.Snapshot().RowsSimulated

	second, err := c.SubmitBoundcheck(BoundcheckRequest{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, c, second)
	warm, _ := c.Result(second)
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm verdicts differ from cold:\n cold %s\n warm %s", cold, warm)
	}
	if info.CacheHits != 6 { // 3 points × 2 sweeps, quick
		t.Errorf("warm job reported %d cache hits, want 6", info.CacheHits)
	}
	m := eng.Snapshot()
	if m.RowsSimulated != simulated {
		t.Errorf("warm job simulated %d extra rows", m.RowsSimulated-simulated)
	}
	if m.Cache.HitRate <= 0 {
		t.Errorf("metrics hit rate = %v, want > 0", m.Cache.HitRate)
	}
}

// TestOverlappingJobsCoalesce: two concurrent identical submissions share
// one execution per sweep (the request batcher), and still both get full
// results.
func TestOverlappingJobsCoalesce(t *testing.T) {
	eng, c := testEngine(t, func(cfg *Config) {
		cfg.Sweeps = synthSweeps(30 * time.Millisecond)
		cfg.Workers = 1
	})
	var ids [2]string
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := c.SubmitBoundcheck(BoundcheckRequest{Quick: true})
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = id
		}(i)
	}
	wg.Wait()
	var docs [2][]byte
	for i, id := range ids {
		if info := waitDone(t, c, id); info.Status != StatusDone {
			t.Fatalf("job %s = %+v", id, info)
		}
		docs[i], _ = c.Result(id)
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Error("coalesced jobs returned different documents")
	}
	m := eng.Snapshot()
	if m.SweepsCoalesced == 0 {
		t.Error("no sweep executions were coalesced across the two jobs")
	}
	// 2 sweeps × 3 quick points, once despite two jobs.
	if m.RowsSimulated != 6 {
		t.Errorf("simulated %d rows, want 6 (each sweep once)", m.RowsSimulated)
	}
}

func TestRateLimitRejects(t *testing.T) {
	_, c := testEngine(t, func(cfg *Config) {
		cfg.RatePerSec = 0.001
		cfg.Burst = 1
	})
	if _, err := c.SubmitSweep(SweepRequest{Name: "syn/linear", Quick: true}); err != nil {
		t.Fatalf("first submission rejected: %v", err)
	}
	if _, err := c.SubmitSweep(SweepRequest{Name: "syn/linear", Quick: true}); err == nil {
		t.Error("second submission not rate limited")
	}
}

// TestShutdownDrainsInFlightJobs: Shutdown must reject new work
// immediately but wait for running jobs, which still finish successfully.
func TestShutdownDrainsInFlightJobs(t *testing.T) {
	eng, c := testEngine(t, func(cfg *Config) {
		cfg.Sweeps = synthSweeps(20 * time.Millisecond)
		cfg.Workers = 1
	})
	id, err := c.SubmitSweep(SweepRequest{Name: "syn/quadratic", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := eng.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := c.SubmitSweep(SweepRequest{Name: "syn/linear", Quick: true}); err == nil {
		t.Error("submission accepted while draining")
	}
	info, err := c.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != StatusDone {
		t.Errorf("in-flight job after drain = %+v, want done", info)
	}
}

// TestDeadlineTruncatesJob: a tiny per-job timeout skips unstarted points
// (harness.WithDeadline semantics) instead of hanging the job.
func TestDeadlineTruncatesJob(t *testing.T) {
	_, c := testEngine(t, func(cfg *Config) {
		cfg.Sweeps = synthSweeps(20 * time.Millisecond)
		cfg.Workers = 1
		cfg.Cache = nil
	})
	id, err := c.SubmitSweep(SweepRequest{Name: "syn/quadratic", TimeoutMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, c, id)
	if info.Status != StatusDone || info.Skipped == 0 {
		t.Errorf("job = %+v, want done with skipped points", info)
	}
}

func TestResultBeforeDoneConflicts(t *testing.T) {
	_, c := testEngine(t, func(cfg *Config) {
		cfg.Sweeps = synthSweeps(50 * time.Millisecond)
		cfg.Workers = 1
	})
	id, err := c.SubmitSweep(SweepRequest{Name: "syn/quadratic", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Result(id); err == nil {
		t.Error("result of a running job did not conflict")
	}
	waitDone(t, c, id)
}

// machineSweeps is a registry whose one sweep actually simulates (long
// east-west messages), so its rows depend on the machine backend — the
// probe for per-request backend plumbing.
func machineSweeps(quick bool) *harness.Registry {
	reg := &harness.Registry{}
	reg.MustRegister(harness.SweepSpec{Name: "syn/wire", Points: 2,
		Point: func(i int, env *harness.Env) []harness.Row {
			m := env.Machine()
			m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
				for j := 0; j < 16; j++ {
					send(machine.Coord{Row: j, Col: 0}, machine.Coord{Row: j, Col: 63}, "v", int64(j))
				}
			})
			return harness.One(float64(i), float64(m.Metrics().Energy))
		}})
	return reg
}

// TestSweepJobBackendKeyed: a request naming a finite backend runs on a
// runner folding onto that fabric — its energies contract versus the
// default ideal run — and the two parameterizations never share a flight
// or a cache row. Bad specs are rejected at submission.
func TestSweepJobBackendKeyed(t *testing.T) {
	_, c := testEngine(t, func(cfg *Config) { cfg.Sweeps = machineSweeps })

	energy := func(backend string) float64 {
		t.Helper()
		id, err := c.SubmitSweep(SweepRequest{Name: "syn/wire", Backend: backend})
		if err != nil {
			t.Fatalf("submit (backend %q): %v", backend, err)
		}
		info := waitDone(t, c, id)
		if info.Status != StatusDone {
			t.Fatalf("job = %+v", info)
		}
		data, err := c.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		var res SweepResult
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][1].(float64)
	}

	ideal := energy("")
	mesh := energy("mesh:4x4:16")
	if ideal <= 0 || mesh <= 0 {
		t.Fatalf("energies = %v (ideal), %v (mesh); want both positive", ideal, mesh)
	}
	if mesh >= ideal {
		t.Errorf("mesh energy %v did not contract below ideal %v", mesh, ideal)
	}
	if again := energy("mesh:4x4:16"); again != mesh {
		t.Errorf("repeat mesh run = %v, want cached %v", again, mesh)
	}

	if _, err := c.SubmitSweep(SweepRequest{Name: "syn/wire", Backend: "mesh:0x4"}); err == nil {
		t.Error("bad backend spec accepted by sweep submission")
	}
	if _, err := c.SubmitBoundcheck(BoundcheckRequest{Backend: "grid:banana"}); err == nil {
		t.Error("bad backend spec accepted by boundcheck submission")
	}
	// Overflow regressions: these specs once passed validation (W*H and
	// span=size*block wrap int) and crashed the job goroutine; they must be
	// rejected at submission.
	for _, spec := range []string{"mesh:3037000500x3037000500", "mesh:4x4:4611686018427387904"} {
		if _, err := c.SubmitSweep(SweepRequest{Name: "syn/wire", Backend: spec}); err == nil {
			t.Errorf("overflowing backend spec %q accepted by sweep submission", spec)
		}
	}
}

// TestPanickingJobFails: a claim that panics while evaluating its sweep
// (here on a non-numeric cell) fails its job with the panic message; the
// daemon counts the failure and keeps serving.
func TestPanickingJobFails(t *testing.T) {
	_, c := testEngine(t, func(cfg *Config) {
		cfg.Sweeps = func(quick bool) *harness.Registry {
			reg := synthSweeps(0)(quick)
			reg.MustRegister(harness.SweepSpec{Name: "syn/text", Points: 2,
				Point: func(i int, env *harness.Env) []harness.Row { return harness.One("n", "cost") }})
			return reg
		}
		cfg.Claims = func() []bounds.Claim {
			return append(synthClaims(), bounds.Claim{ID: "syn/text/exp", Source: "test", Stated: "Θ(n)",
				Kind: bounds.Exponent, Sweep: "syn/text", Col: 1, Want: 1.0, Tol: 0.1})
		}
	})
	id, err := c.SubmitBoundcheck(BoundcheckRequest{Quick: true, Run: "syn/text/"})
	if err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, c, id)
	if info.Status != StatusFailed || !strings.Contains(info.Error, "non-numeric sweep cell") {
		t.Fatalf("job = %+v, want failed with the panic message", info)
	}
	if m, err := c.Metrics(); err != nil || m.Jobs.Failed != 1 {
		t.Errorf("metrics failed = %d (err %v), want 1", m.Jobs.Failed, err)
	}
	id, err = c.SubmitSweep(SweepRequest{Name: "syn/linear", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if info := waitDone(t, c, id); info.Status != StatusDone {
		t.Errorf("next job = %+v, want done", info)
	}
}
