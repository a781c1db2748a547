// Package service is the pooled simulation engine behind cmd/spatiald: a
// long-running daemon that accepts sweep and bound-conformance jobs over
// HTTP/JSON, multiplexes them onto one shared harness worker pool, and
// answers every repeated request out of a content-addressed result cache.
//
// Three mechanisms make the pool cheap to share:
//
//   - A request batcher coalesces overlapping sweeps: two in-flight jobs
//     that need the same (sweep, quick, seed, maxpoints, timeout, backend)
//     attach to one harness execution — the generalization of bounds.Check's
//     per-run sweep dedup across concurrent requests.
//   - The runner's simcache resolves previously computed points at enqueue
//     time, so a warmed daemon answers repeat sweeps without simulating
//     (sweep rows are byte-deterministic in the cache key; see simcache).
//   - Jobs are asynchronous: submission returns an ID immediately, status
//     polls report cost-weighted progress (harness.WithSweepProgress), and
//     results are fetched when done. Per-job deadlines reuse
//     harness.WithDeadline, so a slow sweep truncates instead of pinning
//     the pool.
//
// Endpoints (all JSON):
//
//	POST /v1/jobs/sweep       {"name","quick","seed","maxpoints","timeout_ms","backend"} → {"id"}
//	POST /v1/jobs/boundcheck  {"quick","seed","maxpoints","timeout_ms","run","backend"}  → {"id"}
//	GET  /v1/jobs/{id}         job status + weighted progress
//	GET  /v1/jobs/{id}/result  the job's result document (409 while running)
//	GET  /metrics              jobs, cache hit/miss, rows simulated/served
//	GET  /healthz              "ok"
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bounds"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/simcache"
)

// Config assembles an Engine. Sweeps is required; Claims only for
// boundcheck jobs.
type Config struct {
	// Workers, Shards, Batch configure every harness runner the engine
	// creates. It keeps one runner per distinct (request seed, backend)
	// for its whole life; an idle runner holds no goroutine and no machine
	// (workers exit when its queue drains, machines return to the
	// process-wide pool), but its record stays.
	Workers int
	Shards  int
	Batch   bool
	// Cache, when non-nil, backs every runner. CacheVersion overrides the
	// key's code-version component (tests pin it; production leaves it "").
	Cache        *simcache.Cache
	CacheVersion string
	// Backend is the machine backend jobs run under when a request does
	// not name one (requests with a non-empty "backend" field override
	// it). The zero value is the ideal unbounded model.
	Backend machine.Backend
	// Sweeps yields the sweep registry for quick/full runs. Claims yields
	// the conformance claim set. Both are called lazily and memoized.
	Sweeps func(quick bool) *harness.Registry
	Claims func() []bounds.Claim
	// RatePerSec limits job submissions (token bucket, 0 = unlimited);
	// Burst is the bucket depth (default: ceil(RatePerSec), at least 1).
	RatePerSec float64
	Burst      int
	// MaxFinishedJobs caps retained finished jobs (oldest evicted; default
	// 256) so a long-lived daemon does not accumulate results forever.
	MaxFinishedJobs int
}

// Engine owns the worker pool, the job table and the sweep batcher.
type Engine struct {
	cfg   Config
	start time.Time

	mu      sync.Mutex
	runners map[string]*runnerRef // keyed by (seed, backend)
	regs    map[bool]*harness.Registry
	claims  []bounds.Claim
	jobs    map[string]*Job
	doneIDs []string // finished jobs, oldest first, for eviction
	flights map[string]*flight
	nextID  int64
	closed  bool

	// evictedRows (under mu) counts the rows simulated by runners dropped
	// when their last flight finished, so rows_simulated survives the
	// eviction.
	evictedRows int64

	jobsWG sync.WaitGroup

	submitted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	rejected  atomic.Int64
	coalesced atomic.Int64
	served    atomic.Int64 // rows returned to jobs (cached or fresh)

	limiter *bucket
}

// New builds an engine; it does not listen (use Handler with an
// http.Server).
func New(cfg Config) *Engine {
	if cfg.Sweeps == nil {
		panic("service: Config.Sweeps is required")
	}
	if cfg.MaxFinishedJobs <= 0 {
		cfg.MaxFinishedJobs = 256
	}
	e := &Engine{
		cfg:     cfg,
		start:   time.Now(),
		runners: make(map[string]*runnerRef),
		regs:    make(map[bool]*harness.Registry),
		jobs:    make(map[string]*Job),
		flights: make(map[string]*flight),
	}
	if cfg.RatePerSec > 0 {
		burst := cfg.Burst
		if burst <= 0 {
			burst = int(cfg.RatePerSec + 0.999)
			if burst < 1 {
				burst = 1
			}
		}
		e.limiter = newBucket(cfg.RatePerSec, float64(burst))
	}
	return e
}

// resolveBackend canonicalizes a request's backend spec, falling back to
// the engine-wide default for the empty string.
func (e *Engine) resolveBackend(spec string) (machine.Backend, error) {
	if spec == "" {
		return e.cfg.Backend, nil
	}
	return machine.ParseBackend(spec)
}

// runnerRef is a runner and the number of flights running on it.
type runnerRef struct {
	r       *harness.Runner
	flights int
}

// acquireRunner returns the runner for (seed, backend), creating it if no
// flight holds one, and a release function the flight calls when it
// finishes. The last release drops the runner, so a daemon serving many
// distinct seeds and backends holds runners only for the sweeps in flight.
// Runners are cheap: the simulation machines live in the harness's
// process-wide pool.
func (e *Engine) acquireRunner(seed int64, bk machine.Backend) (*harness.Runner, func()) {
	key := fmt.Sprintf("%d|%s", seed, bk)
	e.mu.Lock()
	defer e.mu.Unlock()
	ref, ok := e.runners[key]
	if !ok {
		ref = &runnerRef{r: e.newRunner(seed, bk)}
		e.runners[key] = ref
	}
	ref.flights++
	return ref.r, func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		if ref.flights--; ref.flights == 0 {
			delete(e.runners, key)
			e.evictedRows += ref.r.RowsSimulated()
		}
	}
}

func (e *Engine) newRunner(seed int64, bk machine.Backend) *harness.Runner {
	opts := []harness.Option{harness.WithLargestFirst(), harness.WithBackend(bk)}
	if e.cfg.Workers > 0 {
		opts = append(opts, harness.WithWorkers(e.cfg.Workers))
	}
	if e.cfg.Shards > 1 {
		opts = append(opts, harness.WithShards(e.cfg.Shards))
	}
	if e.cfg.Batch {
		opts = append(opts, harness.WithBatchSends())
	}
	if e.cfg.Cache != nil {
		opts = append(opts, harness.WithCache(e.cfg.Cache))
		if e.cfg.CacheVersion != "" {
			opts = append(opts, harness.WithCacheVersion(e.cfg.CacheVersion))
		}
	}
	return harness.New(seed, opts...)
}

func (e *Engine) registry(quick bool) *harness.Registry {
	e.mu.Lock()
	defer e.mu.Unlock()
	if reg, ok := e.regs[quick]; ok {
		return reg
	}
	reg := e.cfg.Sweeps(quick)
	e.regs[quick] = reg
	return reg
}

func (e *Engine) claimSet() []bounds.Claim {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.claims == nil && e.cfg.Claims != nil {
		e.claims = e.cfg.Claims()
	}
	return e.claims
}

// ---- jobs ----

// JobStatus is a job's lifecycle state.
type JobStatus string

const (
	StatusRunning JobStatus = "running"
	StatusDone    JobStatus = "done"
	StatusFailed  JobStatus = "failed"
)

// Progress is a job's cost-weighted completion: Done/Total count sweep
// points; DoneCost/TotalCost sum the points' cost hints, the honest
// fraction when point costs span orders of magnitude.
type Progress struct {
	Done      int     `json:"done"`
	Total     int     `json:"total"`
	DoneCost  float64 `json:"done_cost"`
	TotalCost float64 `json:"total_cost"`
}

// Fraction is the cost-weighted completion in [0, 1]. A job whose every
// point resolved from cache carries zero cost weight; it still reports 1
// once all points are done rather than sitting at 0 forever.
func (p Progress) Fraction() float64 {
	if p.TotalCost <= 0 {
		if p.Total > 0 && p.Done >= p.Total {
			return 1
		}
		return 0
	}
	return p.DoneCost / p.TotalCost
}

// JobInfo is the status document for one job.
type JobInfo struct {
	ID        string    `json:"id"`
	Kind      string    `json:"kind"`
	Status    JobStatus `json:"status"`
	Progress  Progress  `json:"progress"`
	Fraction  float64   `json:"fraction"`
	CacheHits int       `json:"cache_hits"`
	Skipped   int       `json:"skipped"`
	ElapsedMS int64     `json:"elapsed_ms"`
	Error     string    `json:"error,omitempty"`
}

// Job is one asynchronous unit of work.
type Job struct {
	id      string
	kind    string
	created time.Time

	mu       sync.Mutex
	status   JobStatus
	finished time.Time
	sweeps   map[string]Progress // per-sweep progress, summed for the job
	hits     int
	skipped  int
	result   []byte
	errMsg   string
	done     chan struct{}
}

func (j *Job) info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	var p Progress
	for _, sp := range j.sweeps {
		p.Done += sp.Done
		p.Total += sp.Total
		p.DoneCost += sp.DoneCost
		p.TotalCost += sp.TotalCost
	}
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	return JobInfo{
		ID: j.id, Kind: j.kind, Status: j.status,
		Progress: p, Fraction: p.Fraction(),
		CacheHits: j.hits, Skipped: j.skipped,
		ElapsedMS: end.Sub(j.created).Milliseconds(),
		Error:     j.errMsg,
	}
}

func (j *Job) updateSweep(name string, p Progress) {
	j.mu.Lock()
	j.sweeps[name] = p
	j.mu.Unlock()
}

func (j *Job) finish(result []byte, hits, skipped int, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	j.hits, j.skipped = hits, skipped
	if err != nil {
		j.status = StatusFailed
		j.errMsg = err.Error()
	} else {
		j.status = StatusDone
		j.result = result
	}
	j.mu.Unlock()
	close(j.done)
}

// newJob registers a job and schedules run on its own goroutine; it fails
// when the engine is draining.
func (e *Engine) newJob(kind string, run func(*Job)) (*Job, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, errDraining
	}
	e.nextID++
	j := &Job{
		id: fmt.Sprintf("j%d", e.nextID), kind: kind, created: time.Now(),
		status: StatusRunning, sweeps: make(map[string]Progress),
		done: make(chan struct{}),
	}
	e.jobs[j.id] = j
	e.jobsWG.Add(1)
	e.mu.Unlock()

	e.submitted.Add(1)
	go func() {
		defer e.jobsWG.Done()
		func() {
			// Like lead, turn a panic (a claim evaluated on a malformed
			// sweep cell, say) into a failed job instead of a dead daemon.
			// run may have finished the job first; finish it only once.
			defer func() {
				if v := recover(); v != nil && j.info().Status == StatusRunning {
					j.finish(nil, 0, 0, fmt.Errorf("%s job panicked: %v", kind, v))
				}
			}()
			run(j)
		}()
		if j.info().Status == StatusFailed {
			e.failed.Add(1)
		} else {
			e.completed.Add(1)
		}
		e.retire(j.id)
	}()
	return j, nil
}

// retire records a finished job for bounded retention.
func (e *Engine) retire(id string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.doneIDs = append(e.doneIDs, id)
	for len(e.doneIDs) > e.cfg.MaxFinishedJobs {
		delete(e.jobs, e.doneIDs[0])
		e.doneIDs = e.doneIDs[1:]
	}
}

func (e *Engine) job(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

var errDraining = fmt.Errorf("service: draining, not accepting jobs")

// ---- the sweep batcher ----

// flight is one in-flight execution of a (sweep, parameters) pair. Every
// job needing that exact pair subscribes to the same flight; the first one
// starts it. This generalizes bounds.Check's same-run sweep dedup across
// concurrent jobs: N overlapping boundcheck submissions simulate each
// sweep once.
type flight struct {
	mu   sync.Mutex
	subs []func(Progress)
	last Progress

	done    chan struct{}
	rows    []harness.Row
	skipped int
	hits    int
	err     error
}

func (f *flight) subscribe(fn func(Progress)) {
	if fn == nil {
		return
	}
	f.mu.Lock()
	f.subs = append(f.subs, fn)
	snap := f.last
	f.mu.Unlock()
	if snap.Total > 0 {
		fn(snap)
	}
}

func (f *flight) broadcast(done, total int, doneCost, totalCost float64) {
	p := Progress{Done: done, Total: total, DoneCost: doneCost, TotalCost: totalCost}
	f.mu.Lock()
	f.last = p
	subs := f.subs
	f.mu.Unlock()
	for _, fn := range subs {
		fn(p)
	}
}

type sweepParams struct {
	Name      string
	Quick     bool
	Seed      int64
	MaxPoints int
	Timeout   time.Duration
	Backend   machine.Backend
}

func (p sweepParams) key() string {
	return fmt.Sprintf("%s|q=%t|s=%d|k=%d|t=%d|b=%s", p.Name, p.Quick, p.Seed, p.MaxPoints, p.Timeout, p.Backend)
}

// runSweep returns the rows of one parameterized sweep, joining an
// in-flight identical execution when there is one. progress (optional)
// receives cost-weighted updates, including an immediate snapshot when
// joining late.
func (e *Engine) runSweep(p sweepParams, progress func(Progress)) ([]harness.Row, int, int, error) {
	key := p.key()
	e.mu.Lock()
	f, joined := e.flights[key]
	if !joined {
		f = &flight{done: make(chan struct{})}
		e.flights[key] = f
	}
	e.mu.Unlock()

	if joined {
		e.coalesced.Add(1)
		f.subscribe(progress)
	} else {
		f.subscribe(progress)
		e.lead(key, p, f)
	}
	<-f.done
	if f.err == nil {
		e.served.Add(int64(len(f.rows)))
	}
	return f.rows, f.skipped, f.hits, f.err
}

// lead executes the flight's sweep and publishes the outcome. A panicking
// point (harness.PointPanic) fails the flight instead of crashing the
// daemon.
func (e *Engine) lead(key string, p sweepParams, f *flight) {
	defer func() {
		if v := recover(); v != nil {
			f.err = fmt.Errorf("sweep %s: %v", p.Name, v)
		}
		// Drop the flight before waking subscribers: a request arriving
		// after completion starts fresh (and is answered by the cache).
		e.mu.Lock()
		delete(e.flights, key)
		e.mu.Unlock()
		close(f.done)
	}()

	r, release := e.acquireRunner(p.Seed, p.Backend)
	defer release()
	s, err := e.registry(p.Quick).Go(r, p.Name,
		harness.WithSweepProgress(f.broadcast), harness.WithMaxPoints(p.MaxPoints), harness.WithDeadline(p.Timeout))
	if err != nil {
		f.err = err
		return
	}
	f.rows = s.Rows() // panics on PointPanic; recovered above
	f.skipped = s.Skipped()
	f.hits = s.CacheHits()
}

// ---- request execution ----

// SweepRequest submits one registered sweep.
type SweepRequest struct {
	Name      string `json:"name"`
	Quick     bool   `json:"quick"`
	Seed      int64  `json:"seed"`
	MaxPoints int    `json:"maxpoints"`
	TimeoutMS int64  `json:"timeout_ms"`
	// Backend is a machine-backend spec ("mesh:8x8:4"); empty uses the
	// daemon's configured default (normally the ideal unbounded model).
	Backend string `json:"backend,omitempty"`
}

// BoundcheckRequest submits a conformance run over the claim registry.
type BoundcheckRequest struct {
	Quick     bool  `json:"quick"`
	Seed      int64 `json:"seed"`
	MaxPoints int   `json:"maxpoints"`
	TimeoutMS int64 `json:"timeout_ms"`
	// Run keeps only claims whose ID starts with this prefix ("" = all).
	Run string `json:"run,omitempty"`
	// Backend is a machine-backend spec ("mesh:8x8:4"); empty uses the
	// daemon's configured default (normally the ideal unbounded model).
	Backend string `json:"backend,omitempty"`
}

// SweepResult is the result document of a sweep job.
type SweepResult struct {
	Name      string        `json:"name"`
	Seed      int64         `json:"seed"`
	Rows      []harness.Row `json:"rows"`
	Skipped   int           `json:"skipped"`
	CacheHits int           `json:"cache_hits"`
}

func defaultSeed(s int64) int64 {
	if s == 0 {
		return 1
	}
	return s
}

// SubmitSweep starts a sweep job and returns it.
func (e *Engine) SubmitSweep(req SweepRequest) (*Job, error) {
	if req.Name == "" {
		return nil, fmt.Errorf("service: sweep request needs a name")
	}
	if _, ok := e.registry(req.Quick).Lookup(req.Name); !ok {
		return nil, fmt.Errorf("service: unknown sweep %q (have %v)",
			req.Name, e.registry(req.Quick).Names())
	}
	bk, err := e.resolveBackend(req.Backend)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	p := sweepParams{Name: req.Name, Quick: req.Quick, Seed: defaultSeed(req.Seed),
		MaxPoints: req.MaxPoints, Timeout: time.Duration(req.TimeoutMS) * time.Millisecond,
		Backend: bk}
	return e.newJob("sweep", func(j *Job) {
		rows, skipped, hits, err := e.runSweep(p, func(pr Progress) { j.updateSweep(p.Name, pr) })
		if err != nil {
			j.finish(nil, hits, skipped, err)
			return
		}
		result, err := json.Marshal(SweepResult{
			Name: p.Name, Seed: p.Seed, Rows: rows, Skipped: skipped, CacheHits: hits})
		j.finish(result, hits, skipped, err)
	})
}

// SubmitBoundcheck starts a conformance job. Its result document is
// byte-identical to `boundcheck -json` run locally with the engine's
// shards/batch configuration — the sweeps execute through the same
// registry and seeding, and the document comes from the same
// bounds.MarshalReportJSON. Overlapping jobs coalesce per sweep.
func (e *Engine) SubmitBoundcheck(req BoundcheckRequest) (*Job, error) {
	claims := e.claimSet()
	if len(claims) == 0 {
		return nil, fmt.Errorf("service: no claim registry configured")
	}
	if claims = bounds.Filter(claims, req.Run); len(claims) == 0 {
		return nil, fmt.Errorf("service: no claims match run prefix %q", req.Run)
	}
	seed := defaultSeed(req.Seed)
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	bk, err := e.resolveBackend(req.Backend)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	machineMeta := ""
	if bk.Finite() {
		machineMeta = bk.String()
	}
	return e.newJob("boundcheck", func(j *Job) {
		// The sweeps bounds.Check would run, each through the batcher, so
		// concurrent jobs share executions.
		names := bounds.SweepNames(claims)
		type outcome struct {
			bounds.SweepRun
			hits int
			err  error
		}
		outs := make([]outcome, len(names))
		var wg sync.WaitGroup
		for i, name := range names {
			wg.Add(1)
			go func(i int, name string) {
				defer wg.Done()
				p := sweepParams{Name: name, Quick: req.Quick, Seed: seed,
					MaxPoints: req.MaxPoints, Timeout: timeout, Backend: bk}
				rows, skipped, hits, err := e.runSweep(p, func(pr Progress) { j.updateSweep(name, pr) })
				outs[i] = outcome{bounds.SweepRun{Rows: rows, Skipped: skipped}, hits, err}
			}(i, name)
		}
		wg.Wait()

		runs := make(map[string]bounds.SweepRun, len(names))
		var hits, skipped int
		for i, name := range names {
			if outs[i].err != nil {
				j.finish(nil, hits, skipped, outs[i].err)
				return
			}
			runs[name] = outs[i].SweepRun
			hits += outs[i].hits
			skipped += outs[i].Skipped
		}
		result, err := bounds.MarshalReportJSON(bounds.Assemble(claims, runs), bounds.RunMeta{
			Quick: req.Quick, Seed: seed, MaxPoints: req.MaxPoints,
			Shards: e.effectiveShards(), Batch: e.cfg.Batch, Machine: machineMeta})
		j.finish(result, hits, skipped, err)
	})
}

func (e *Engine) effectiveShards() int {
	if e.cfg.Shards > 1 {
		return e.cfg.Shards
	}
	return 1
}

// ---- metrics & lifecycle ----

// Metrics is the /metrics document.
type Metrics struct {
	UptimeMS int64 `json:"uptime_ms"`
	Jobs     struct {
		Submitted int64 `json:"submitted"`
		Running   int64 `json:"running"`
		Done      int64 `json:"done"`
		Failed    int64 `json:"failed"`
		Rejected  int64 `json:"rejected"`
	} `json:"jobs"`
	SweepsCoalesced int64 `json:"sweeps_coalesced"`
	RowsSimulated   int64 `json:"rows_simulated"`
	RowsServed      int64 `json:"rows_served"`
	Cache           struct {
		Hits    int64   `json:"hits"`
		Misses  int64   `json:"misses"`
		Stores  int64   `json:"stores"`
		Errors  int64   `json:"errors"`
		HitRate float64 `json:"hit_rate"`
	} `json:"cache"`
}

// Snapshot assembles the current metrics.
func (e *Engine) Snapshot() Metrics {
	var m Metrics
	m.UptimeMS = time.Since(e.start).Milliseconds()
	m.Jobs.Submitted = e.submitted.Load()
	m.Jobs.Done = e.completed.Load()
	m.Jobs.Failed = e.failed.Load()
	m.Jobs.Running = m.Jobs.Submitted - m.Jobs.Done - m.Jobs.Failed
	m.Jobs.Rejected = e.rejected.Load()
	m.SweepsCoalesced = e.coalesced.Load()
	m.RowsServed = e.served.Load()
	e.mu.Lock()
	m.RowsSimulated = e.evictedRows
	for _, ref := range e.runners {
		m.RowsSimulated += ref.r.RowsSimulated()
	}
	e.mu.Unlock()
	if e.cfg.Cache != nil {
		st := e.cfg.Cache.Stats()
		m.Cache.Hits, m.Cache.Misses = st.Hits, st.Misses
		m.Cache.Stores, m.Cache.Errors = st.Stores, st.Errors
		if lookups := st.Hits + st.Misses; lookups > 0 {
			m.Cache.HitRate = float64(st.Hits) / float64(lookups)
		}
	}
	return m
}

// Shutdown stops accepting jobs and waits for in-flight ones to drain, or
// for ctx. Safe to call more than once.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		e.jobsWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain interrupted with jobs in flight: %w", ctx.Err())
	}
}

// ---- HTTP ----

// Handler returns the engine's HTTP API.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs/sweep", func(w http.ResponseWriter, r *http.Request) {
		var req SweepRequest
		e.submit(w, r, &req, func() (*Job, error) { return e.SubmitSweep(req) })
	})
	mux.HandleFunc("POST /v1/jobs/boundcheck", func(w http.ResponseWriter, r *http.Request) {
		var req BoundcheckRequest
		e.submit(w, r, &req, func() (*Job, error) { return e.SubmitBoundcheck(req) })
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := e.job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "unknown job")
			return
		}
		writeDoc(w, http.StatusOK, j.info())
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		j, ok := e.job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "unknown job")
			return
		}
		j.mu.Lock()
		status, result, errMsg := j.status, j.result, j.errMsg
		j.mu.Unlock()
		switch status {
		case StatusRunning:
			httpError(w, http.StatusConflict, "job still running")
		case StatusFailed:
			httpError(w, http.StatusInternalServerError, errMsg)
		default:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			w.Write(result)
		}
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeDoc(w, http.StatusOK, e.Snapshot())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// maxRequestBytes caps a submission body. Requests are a few hundred
// bytes; the cap keeps one client from making the daemon buffer an
// arbitrarily large JSON document.
const maxRequestBytes = 64 << 10

// submit is the shared submission path: rate limit, decode, dispatch.
func (e *Engine) submit(w http.ResponseWriter, r *http.Request, req any, start func() (*Job, error)) {
	if e.limiter != nil && !e.limiter.allow() {
		e.rejected.Add(1)
		httpError(w, http.StatusTooManyRequests, "rate limit exceeded")
		return
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, err.Error())
			return
		}
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	j, err := start()
	switch {
	case err == errDraining:
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
	default:
		writeDoc(w, http.StatusAccepted, map[string]string{"id": j.id})
	}
}

func writeDoc(w http.ResponseWriter, code int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(doc)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeDoc(w, code, map[string]string{"error": msg})
}

// bucket is a minimal token-bucket rate limiter (stdlib only).
type bucket struct {
	mu     sync.Mutex
	tokens float64
	rate   float64
	burst  float64
	last   time.Time
}

func newBucket(rate, burst float64) *bucket {
	return &bucket{tokens: burst, rate: rate, burst: burst, last: time.Now()}
}

func (b *bucket) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
