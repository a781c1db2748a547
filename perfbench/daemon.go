package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/bounds"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/service"
	"repro/internal/simcache"
)

// The daemon workload drives an in-process service.Engine over loopback
// HTTP as the CLIs' -server mode does: each client waits for one job's
// result before submitting the next, so the traffic is a closed loop.
// Nine of every ten jobs repeat the priming boundcheck and are served from
// the cache (they set the median); the other one is a quick sweep at a
// seed never used before, which simulates and stores (it sets p99). The
// priming boundcheck runs at the gate's seed (see conformance.go), so its
// document is checked against the golden copy on every run; the workload
// seed decides where in each block of ten the cold job falls and the
// cold jobs' seeds.
const (
	dmWorkers = 1
	dmShards  = 1
	dmClients = 2
	// dmPoll is the fixed interval between status polls of one job.
	dmPoll = 200 * time.Microsecond
	// dmColdEvery makes one job in every block of ten of a client cold.
	dmColdEvery = 10
	// dmJobsPerSecond sizes the run from -seconds; dmMinJobs keeps at
	// least 1000 cold jobs, so the cold-job p99 has 10 samples beyond it.
	dmJobsPerSecond = 500
	dmMinJobs       = 10000
	// dmSetups is how many times the engine is started and primed; the
	// median is setup_s.
	dmSetups   = 3
	dmPrimeRun = "table1/"
	dmColdName = "bounds/collectives"
)

// daemon is one running engine behind a loopback HTTP server.
type daemon struct {
	eng    *service.Engine
	srv    *http.Server
	base   string
	served chan error
}

func startDaemon() (*daemon, error) {
	eng := service.New(service.Config{
		Workers: dmWorkers, Shards: dmShards, Batch: true,
		Cache:   simcache.New(simcache.Memory(), 0),
		Backend: machine.Ideal(),
		Sweeps:  experiments.BoundSweeps,
		Claims:  bounds.Registry,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{eng: eng, srv: &http.Server{Handler: eng.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// stop shuts the server and the engine down and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, d.eng.Shutdown(ctx))
}

// client is one closed-loop client with its own connection.
func (d *daemon) client() *service.Client {
	return &service.Client{Base: d.base, HTTPClient: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

// jobResult is one job as the client saw it.
type jobResult struct {
	body  []byte
	info  service.JobInfo
	polls int
	err   error
}

// doJob submits one job, polls it at dmPoll until it leaves the running
// state and reads its result, recording a span around each call.
func doJob(c *service.Client, rec *recorder, parent int, job string, submit func() (string, error)) jobResult {
	var r jobResult
	id := rec.begin(parent, "service.submit", "service", job)
	jid, err := submit()
	rec.end(id, 0, 0)
	if err != nil {
		r.err = fmt.Errorf("submit: %w", err)
		return r
	}
	for {
		id := rec.begin(parent, "service.poll", "service", jid)
		r.info, err = c.Job(jid)
		rec.end(id, 0, r.info.CacheHits)
		r.polls++
		if err != nil {
			r.err = fmt.Errorf("poll %s: %w", jid, err)
			return r
		}
		if r.info.Status != service.StatusRunning {
			break
		}
		time.Sleep(dmPoll)
	}
	if r.info.Status != service.StatusDone {
		r.err = fmt.Errorf("job %s %s: %s", jid, r.info.Status, r.info.Error)
		return r
	}
	id = rec.begin(parent, "service.result", "service", jid)
	r.body, err = c.Result(jid)
	rec.end(id, 0, r.info.CacheHits)
	if err != nil {
		r.err = fmt.Errorf("result %s: %w", jid, err)
	}
	return r
}

// coldSeed is the seed of a client's j-th job if it is cold: distinct for
// every job of the run and never the priming seed.
func coldSeed(seed int64, client, j int) int64 {
	return seed + confSeed + 1 + int64(j*dmClients+client)
}

// coldSchedule marks which of a client's n jobs are cold: one in every
// block of dmColdEvery, at a position drawn from the workload seed.
func coldSchedule(seed int64, client, n int) []bool {
	rng := rand.New(rand.NewSource(seed*dmClients + int64(client)))
	cold := make([]bool, n)
	for b := 0; b < n; b += dmColdEvery {
		if j := b + rng.Intn(dmColdEvery); j < n {
			cold[j] = true
		}
	}
	return cold
}

// jobSample is one timed job of the loop.
type jobSample struct {
	ms   float64 // +Inf when the job failed
	cold bool
}

func runDaemon(p params) *outcome {
	o := newOutcome("daemon", p)
	o.Lanes = dmClients
	jobs := max(dmMinJobs, dmJobsPerSecond*p.seconds)
	perClient := jobs / dmClients
	o.config("workers", dmWorkers)
	o.config("shards", dmShards)
	o.config("batch", true)
	o.config("backend", "ideal")
	o.config("cache", "memory")
	o.config("clients", dmClients)
	o.config("poll", dmPoll)
	o.config("jobs", perClient*dmClients)
	o.config("cold_every", dmColdEvery)

	warmReq := service.BoundcheckRequest{Quick: true, Seed: confSeed, Run: dmPrimeRun}

	// Set-up: start the engine and prime the cache with one cold
	// boundcheck. Only the last engine stays up for the timed section.
	var d *daemon
	var prime []byte
	for i := 0; i < dmSetups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				o.op("stop set-up engine", err.Error())
			}
		}
		t0 := time.Now()
		var err error
		d, err = startDaemon()
		if err != nil {
			o.op("start engine", err.Error())
			return o
		}
		c := d.client()
		r := doJob(c, nil, 0, "", func() (string, error) { return c.SubmitBoundcheck(warmReq) })
		o.SetupS = append(o.SetupS, time.Since(t0).Seconds())
		o.op("priming boundcheck", checkPrime(r, prime)...)
		prime = r.body
	}
	defer func() {
		if err := d.stop(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: daemon: stop: %v\n", err)
		}
	}()

	// One local run of the cold sweep is the reference for every cold
	// result: bounds/collectives draws no randomness.
	var refRows []byte
	if err := protect(func() {
		rows, err := experiments.BoundSweeps(true).Run(confRunner(p.seed), dmColdName)
		if err != nil {
			panic(err)
		}
		if refRows, err = json.Marshal(rows); err != nil {
			panic(err)
		}
	}); err != nil {
		o.op("local reference sweep", err.Error())
		return o
	}

	startTimed()
	before := d.eng.Snapshot()
	rt := readRuntime()
	samples := make([][]jobSample, dmClients)
	polls := make([]int, dmClients)
	problems := make([][]string, dmClients)
	var wg sync.WaitGroup
	// Each client's lane spans the whole loop, so a client that finishes
	// early shows its idle tail as the lane's self time and every lane
	// lasts exactly wall_s.
	lanes := make([]int, dmClients)
	t0 := time.Now()
	for ci := range lanes {
		lanes[ci] = p.rec.begin(0, "daemon client", "bench", fmt.Sprint("client", ci))
	}
	for ci := 0; ci < dmClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := d.client()
			lane := lanes[ci]
			schedule := coldSchedule(p.seed, ci, perClient)
			for j := 0; j < perClient; j++ {
				cold := schedule[j]
				kind, job := "daemon job warm", ""
				if cold {
					kind = "daemon job cold"
				}
				if p.rec != nil {
					job = fmt.Sprintf("c%d-%d", ci, j)
				}
				submit := func() (string, error) { return c.SubmitBoundcheck(warmReq) }
				if cold {
					seed := coldSeed(p.seed, ci, j)
					submit = func() (string, error) {
						return c.SubmitSweep(service.SweepRequest{Name: dmColdName, Quick: true, Seed: seed})
					}
				}
				start := time.Now()
				id := p.rec.begin(lane, kind, "bench", job)
				r := doJob(c, p.rec, id, job, submit)
				p.rec.end(id, 0, r.info.CacheHits)
				ms := float64(time.Since(start)) / 1e6
				polls[ci] += r.polls
				if msg := checkJob(r, cold, prime, refRows); msg != "" {
					ms = math.Inf(1)
					problems[ci] = append(problems[ci], fmt.Sprintf("client %d job %d: %s", ci, j, msg))
				}
				samples[ci] = append(samples[ci], jobSample{ms, cold})
			}
		}(ci)
	}
	wg.Wait()
	for _, lane := range lanes {
		p.rec.end(lane, 0, 0)
	}
	wall := time.Since(t0)
	rt.since(o)
	after := d.eng.Snapshot()

	var all, warm, cold []float64
	totalPolls := 0
	for ci := range samples {
		totalPolls += polls[ci]
		for _, s := range samples[ci] {
			all = append(all, s.ms)
			if s.cold {
				cold = append(cold, s.ms)
			} else {
				warm = append(warm, s.ms)
			}
		}
	}
	failedJobs := 0
	for ci := range problems {
		failedJobs += len(problems[ci])
	}
	for ci := range problems {
		for j, msg := range problems[ci] {
			if j == 20 {
				fmt.Fprintf(os.Stderr, "perfbench: daemon: client %d: %d more failed jobs not shown\n", ci, len(problems[ci])-j)
				break
			}
			fmt.Fprintf(os.Stderr, "perfbench: daemon: FAIL %s\n", msg)
		}
	}
	o.Attempted += len(all)
	o.Failed += failedJobs

	o.WallS = wall.Seconds()
	p50, b50 := percentile(all, 0.50)
	p99, b99 := percentile(all, 0.99)
	o.e2e("jobs_per_s", float64(len(all))/o.WallS, "1/s", fmt.Sprintf("%d jobs, %d clients, closed loop", len(all), dmClients))
	o.e2e("job_p50_ms", p50, "ms", pctNote(len(all), b50))
	o.e2e("job_p99_ms", p99, "ms", pctNote(len(all), b99))

	o.Layer["simcache.hits"] = float64(after.Cache.Hits - before.Cache.Hits)
	o.Layer["simcache.misses"] = float64(after.Cache.Misses - before.Cache.Misses)
	if lookups := o.Layer["simcache.hits"] + o.Layer["simcache.misses"]; lookups > 0 {
		o.Layer["simcache.hit_ratio"] = o.Layer["simcache.hits"] / lookups
	}
	o.Layer["harness.rows_simulated"] = float64(after.RowsSimulated - before.RowsSimulated)
	o.Layer["service.rows_served"] = float64(after.RowsServed - before.RowsServed)
	o.Layer["service.sweeps_coalesced"] = float64(after.SweepsCoalesced - before.SweepsCoalesced)
	o.Layer["service.jobs_failed"] = float64(failedJobs)
	o.Layer["service.polls_per_job"] = float64(totalPolls) / float64(len(all))
	o.Layer["service.warm_job_ms_p50"], _ = percentile(warm, 0.50)
	o.Layer["service.cold_job_ms_p50"], _ = percentile(cold, 0.50)
	var beyond int
	o.Layer["service.cold_job_ms_p99"], beyond = percentile(cold, 0.99)
	if p.rec != nil {
		fmt.Fprintf(os.Stderr, "perfbench: daemon: service.cold_job_ms_p99 over %s\n", pctNote(len(cold), beyond))
		var submit, result []float64
		for _, s := range p.rec.snapshot() {
			switch s.Name {
			case "service.submit":
				submit = append(submit, float64(s.dur())/1e6)
			case "service.result":
				result = append(result, float64(s.dur())/1e6)
			}
		}
		o.Layer["service.submit_ms_p50"], _ = percentile(submit, 0.50)
		o.Layer["service.result_ms_p50"], _ = percentile(result, 0.50)
	}
	return o
}

// checkPrime verifies a priming job: every claim holds, the document is
// the golden one and the same in every set-up.
func checkPrime(r jobResult, earlier []byte) []string {
	if r.err != nil {
		return []string{r.err.Error()}
	}
	var problems []string
	if rep, _, err := bounds.ReadReportJSON(r.body); err != nil || !rep.Passed() {
		problems = append(problems, "a table1 claim does not hold")
	}
	if !bytes.Equal(r.body, goldenTable1) {
		problems = append(problems, "priming verdict document differs from the golden copy")
	}
	if earlier != nil && !bytes.Equal(r.body, earlier) {
		problems = append(problems, "priming verdict document differs between set-ups")
	}
	return problems
}

// checkJob verifies one job's result: a warm result must be byte-equal to
// the priming document, a cold result's rows byte-equal to the local
// reference run. It returns "" for a good job.
func checkJob(r jobResult, cold bool, prime, refRows []byte) string {
	if r.err != nil {
		return r.err.Error()
	}
	if !cold {
		if !bytes.Equal(r.body, prime) {
			return "warm result differs from the priming document"
		}
		return ""
	}
	var doc struct {
		Rows json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(r.body, &doc); err != nil {
		return "cold result is not valid JSON: " + err.Error()
	}
	if !bytes.Equal(doc.Rows, refRows) {
		return fmt.Sprintf("cold rows %s differ from the local run %s", doc.Rows, refRows)
	}
	return ""
}
