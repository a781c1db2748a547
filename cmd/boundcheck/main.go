// Command boundcheck machine-checks the paper's Θ/O bounds against fresh
// measurements: it replays the registered bound sweeps on the simulator,
// fits the results, and evaluates every claim in the internal/bounds
// registry. The exit code is the conformance verdict — 0 when every claim
// holds, 1 when any fails — which is what `make conformance` and CI gate
// on.
//
// Usage:
//
//	boundcheck -quick          # smaller sweeps (~seconds; the CI gate)
//	boundcheck                 # full sweeps (minutes; nightly / release)
//	boundcheck -json           # structured verdicts on stdout
//	boundcheck -run table1/    # only claims whose ID has this prefix
//	boundcheck -timeout 9m     # per-sweep budget; unstarted points skipped
//	boundcheck -shards 4       # shard-parallel rounds inside each machine
//	boundcheck -batch=false    # disable the batched/counting-only fast path
//	boundcheck -list           # list registered claims and exit
//	boundcheck -cache DIR      # content-addressed result cache (see below)
//	boundcheck -backend mesh:8x8:4  # measure on a folded finite fabric
//	                           # (claims still judge what they state; the
//	                           # spec is recorded as "machine" in -json)
//	boundcheck -server URL     # run on a spatiald daemon instead of locally
//	boundcheck -compare OLD.json NEW.json  # diff two -json runs; exit 1 on
//	                           # any claim that flipped from PASS to FAIL
//
// -cache points at a directory of previously computed sweep rows keyed by
// (sweep, point, seed, shards, batch, congestion, backend, code version)
// — see internal/simcache. Because every sweep point is
// byte-deterministic in those inputs, a warm rerun produces the
// *identical* report (table and -json bytes) while skipping the
// simulation entirely; hit/miss counts go to stderr, never into the
// report. -server submits the run as a job to a spatiald daemon and polls
// it; the daemon's own pool settings replace -parallel/-shards/-batch,
// and -quick/-seed/-maxpoints/-timeout/-run travel with the request.
//
// -shards (default GOMAXPROCS) and -batch (default on) change wall-clock
// only: sweep rows are byte-identical for any setting (see
// internal/machine), and the settings used are recorded in the -json
// document so artifacts are self-describing.
//
// Full runs report weighted progress and an ETA on stderr by default
// (large-n points dominate the wall clock, so the estimate is cost-based,
// not point-count-based); -progress=false silences it.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/analysis"
	"repro/internal/bounds"
	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, mainProvider))
}

// provider yields the sweep registry and claim set for a run; tests inject
// synthetic ones to exercise failure paths without minutes of simulation.
type provider func(quick bool) (*harness.Registry, []bounds.Claim)

func mainProvider(quick bool) (*harness.Registry, []bounds.Claim) {
	return experiments.BoundSweeps(quick), bounds.Registry()
}

func run(args []string, stdout, stderr io.Writer, prov provider) int {
	fs := flag.NewFlagSet("boundcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick     = fs.Bool("quick", false, "smaller sweeps (seconds instead of minutes)")
		full      = fs.Bool("full", false, "full sweeps (the default; flag exists for symmetry)")
		jsonOut   = fs.Bool("json", false, "emit the verdicts as JSON")
		list      = fs.Bool("list", false, "list registered claims and exit")
		runFilter = fs.String("run", "", "only evaluate claims whose ID starts with this prefix")
		seed      = cliflags.AddSeed(fs)
		pool      = cliflags.AddPool(fs)
		maxPoints = fs.Int("maxpoints", 0, "cap every sweep at its first k points (0 = no cap)")
		timeout   = cliflags.AddTimeout(fs)
		progress  = fs.Bool("progress", false, "report completion and ETA on stderr (default true for full runs)")
		cacheFlag = cliflags.AddCache(fs, "")
		backend   = cliflags.AddBackend(fs)
		server    = cliflags.AddServer(fs, "run on this spatiald daemon (URL or host:port) instead of locally")
		compare   = fs.Bool("compare", false, "diff two -json verdict documents (OLD.json NEW.json); exit 1 on a PASS→FAIL flip")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bk, err := backend.Parse()
	if err != nil {
		fmt.Fprintf(stderr, "boundcheck: -backend: %v\n", err)
		return 2
	}
	// The canonical spec travels into the JSON document (and to the
	// daemon); ideal stays "" so pre-backend artifacts compare equal.
	machineMeta := ""
	if bk.Finite() {
		machineMeta = bk.String()
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "boundcheck: -compare takes exactly two arguments: OLD.json NEW.json")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *quick && *full {
		fmt.Fprintln(stderr, "boundcheck: -quick and -full are mutually exclusive")
		return 2
	}
	progressSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "progress" {
			progressSet = true
		}
	})
	if !progressSet && !*quick {
		// Full sweeps run for minutes; default to telling the operator
		// where the run stands. Quick runs stay silent (they gate CI logs).
		*progress = true
	}

	if *server != "" && !*list {
		return runOnServer(*server, stdout, stderr, serverRun{
			quick: *quick, seed: *seed, maxPoints: *maxPoints, timeout: *timeout,
			filter: *runFilter, jsonOut: *jsonOut, progress: *progress,
			backend: machineMeta,
		})
	}

	reg, all := prov(*quick)
	claims := bounds.Filter(all, *runFilter)
	if len(claims) == 0 && *runFilter != "" {
		fmt.Fprintf(stderr, "boundcheck: no claims match -run %q; registered IDs:\n", *runFilter)
		for _, c := range all {
			fmt.Fprintf(stderr, "  %s\n", c.ID)
		}
		return 2
	}

	if *list {
		t := analysis.NewTable("id", "source", "kind", "stated", "sweep")
		for _, c := range claims {
			t.AddRow(c.ID, c.Source, string(c.Kind), c.Stated, c.Sweep)
		}
		fmt.Fprint(stdout, t.String())
		return 0
	}

	// Largest-first scheduling: the 2²⁰ tail points start immediately and
	// overlap the swarm of cheap points instead of serializing the pool at
	// the end of the run. Row order and RNG seeding are unaffected — and so
	// are the sweep rows under -shards/-batch (sharding and the counting
	// fast path change wall-clock only; see internal/machine).
	opts := append(pool.HarnessOptions(), harness.WithLargestFirst(), harness.WithBackend(bk))
	cache, err := cacheFlag.Open()
	if err != nil {
		fmt.Fprintf(stderr, "boundcheck: -cache: %v\n", err)
		return 2
	}
	if cache != nil {
		opts = append(opts, harness.WithCache(cache))
	}
	if *progress {
		opts = append(opts, cliflags.ProgressLine(stderr))
	}

	rep, err := bounds.Check(harness.New(*seed, opts...), reg, claims,
		bounds.Options{MaxPoints: *maxPoints, Deadline: *timeout})
	if err != nil {
		fmt.Fprintf(stderr, "boundcheck: %v\n", err)
		return 2
	}
	if n := rep.Skipped(); n > 0 {
		fmt.Fprintf(stderr, "boundcheck: -timeout %v skipped %d sweep points; claims judged on the points that ran\n", *timeout, n)
	}
	cacheFlag.ReportStats(stderr, "boundcheck", cache)

	if *jsonOut {
		if err := bounds.WriteReportJSON(stdout, rep, bounds.RunMeta{
			Quick: *quick, Seed: *seed, MaxPoints: *maxPoints, Shards: pool.Shards, Batch: pool.Batch,
			Machine: machineMeta,
		}); err != nil {
			fmt.Fprintf(stderr, "boundcheck: %v\n", err)
			return 2
		}
	} else {
		writeTable(stdout, rep)
	}
	if !rep.Passed() {
		return 1
	}
	return 0
}

func writeTable(w io.Writer, rep bounds.Report) {
	t := analysis.NewTable("claim", "source", "stated", "verdict", "detail")
	for _, v := range rep.Verdicts {
		verdict := "PASS"
		if !v.Pass {
			verdict = "FAIL"
		}
		t.AddRow(v.ID, v.Source, v.Stated, verdict, v.Detail)
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintf(w, "\n%d/%d claims hold\n", len(rep.Verdicts)-rep.Failures(), len(rep.Verdicts))
}

// serverRun carries the flags a -server run ships to the daemon.
type serverRun struct {
	quick     bool
	seed      int64
	maxPoints int
	timeout   time.Duration
	filter    string
	jsonOut   bool
	progress  bool
	backend   string // canonical finite-backend spec, "" for ideal
}

// runOnServer submits the conformance run to a spatiald daemon, polls it
// to completion, and renders the daemon's result document. The document
// is the same bounds.MarshalReportJSON bytes a local -json run with the
// daemon's pool settings would produce, so -json output is directly
// comparable across local and server runs.
func runOnServer(server string, stdout, stderr io.Writer, sr serverRun) int {
	c := &service.Client{Base: server}
	id, err := c.SubmitBoundcheck(service.BoundcheckRequest{
		Quick: sr.quick, Seed: sr.seed, MaxPoints: sr.maxPoints,
		TimeoutMS: sr.timeout.Milliseconds(), Run: sr.filter, Backend: sr.backend,
	})
	if err != nil {
		fmt.Fprintf(stderr, "boundcheck: %v\n", err)
		return 2
	}
	var onProgress func(service.JobInfo)
	if sr.progress {
		onProgress = func(info service.JobInfo) {
			p := info.Progress
			fmt.Fprintf(stderr, "\r%s: %d/%d points (%3.0f%% of est. cost)", id, p.Done, p.Total, 100*info.Fraction)
			if info.Status != service.StatusRunning {
				fmt.Fprintln(stderr)
			}
		}
	}
	info, err := c.Wait(context.Background(), id, 250*time.Millisecond, onProgress)
	if err != nil {
		fmt.Fprintf(stderr, "boundcheck: %v\n", err)
		return 2
	}
	if info.Status != service.StatusDone {
		fmt.Fprintf(stderr, "boundcheck: job %s %s: %s\n", id, info.Status, info.Error)
		return 2
	}
	if info.Skipped > 0 {
		fmt.Fprintf(stderr, "boundcheck: daemon skipped %d sweep points on its deadline; claims judged on the points that ran\n", info.Skipped)
	}
	fmt.Fprintf(stderr, "boundcheck: server job %s: %d/%d points from cache\n", id, info.CacheHits, info.Progress.Total)
	doc, err := c.Result(id)
	if err != nil {
		fmt.Fprintf(stderr, "boundcheck: %v\n", err)
		return 2
	}
	rep, _, err := bounds.ReadReportJSON(doc)
	if err != nil {
		fmt.Fprintf(stderr, "boundcheck: bad result document: %v\n", err)
		return 2
	}
	if sr.jsonOut {
		stdout.Write(doc)
	} else {
		writeTable(stdout, rep)
	}
	if !rep.Passed() {
		return 1
	}
	return 0
}
