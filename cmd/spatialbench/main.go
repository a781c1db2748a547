// Command spatialbench regenerates the paper's evaluation artifacts: Table I
// and the per-lemma/figure cost comparisons, measured on the Spatial
// Computer Model simulator. See DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded results.
//
// Every experiment renders the registered sweeps of
// internal/experiments.BoundSweeps — the same points boundcheck gates,
// spatiald serves and the result cache stores. The sweeps the selected
// experiments read are enqueued once each and executed through
// internal/harness on a pool of recycled machines, so they use all cores
// by default. Within each machine, -shards splits the delivery of large
// parallel rounds across worker goroutines and -batch admits the
// counting-only fast path for the sorting networks (both on by default).
// Output is byte-identical for any -parallel/-shards/-batch combination
// at a fixed -seed; the knobs exist so regressions and speedups can be
// attributed.
//
// Usage:
//
//	spatialbench -exp all            # run everything
//	spatialbench -exp table1        # one experiment
//	spatialbench -list              # list experiments
//	spatialbench -exp table1 -quick # smaller sweeps
//	spatialbench -exp all -parallel 1    # sequential (same output)
//	spatialbench -exp scan-ablation -csv  # machine-readable series
//	spatialbench -exp scan-ablation -json # JSON tables
//	spatialbench -exp scan-ablation -quick -parallel 1 -trace out.json \
//	    -heatmap out.csv              # trace to chrome://tracing + PE heatmap
//	spatialbench -cache DIR          # reuse previously simulated sweep points
//	spatialbench -backend torus:8x8:4    # fold onto a finite fabric (costs
//	                                 # change, results don't; heatmaps show
//	                                 # load on physical links)
//	spatialbench -server URL -sweep bounds/scan   # run a registered sweep on spatiald
//	spatialbench -server URL -sweep list          # list the daemon-runnable sweeps
//
// -cache keys every sweep point by (sweep, point, seed, shards, batch,
// congestion, backend, code version) — see internal/simcache —
// so repeat runs replay stored rows instead of simulating; experiment
// output is byte-identical either way, and hit/miss counts go to stderr.
// -server submits one registered sweep to a spatiald daemon and prints
// its raw rows; the tables render locally only.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/service"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, so tests can drive the full
// CLI (flags, experiment dispatch, exit codes) against in-memory buffers.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spatialbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expName    = fs.String("exp", "all", "experiment to run (see -list)")
		list       = fs.Bool("list", false, "list experiments and exit")
		quick      = fs.Bool("quick", false, "smaller problem sizes")
		csv        = fs.Bool("csv", false, "emit CSV series instead of tables where applicable")
		jsonOut    = fs.Bool("json", false, "emit JSON tables instead of text")
		seed       = cliflags.AddSeed(fs)
		pool       = cliflags.AddPool(fs)
		progress   = fs.Bool("progress", false, "report per-sweep point completion on stderr")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		traceOut   = fs.String("trace", "", "write a chrome://tracing / Perfetto trace of every message to this file (use -parallel 1 for readable scopes)")
		heatOut    = fs.String("heatmap", "", "write a per-PE send/recv/link-load heatmap CSV to this file")
		cpCheck    = fs.Bool("cpcheck", false, "verify every measurement's critical path against its Depth/Distance metrics (slow)")
		cacheFlag  = cliflags.AddCache(fs, "")
		backend    = cliflags.AddBackend(fs)
		server     = cliflags.AddServer(fs, "submit -sweep to this spatiald daemon (URL or host:port) instead of running locally")
		sweepName  = fs.String("sweep", "", "registered sweep to run via -server (\"list\" to enumerate)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bk, err := backend.Parse()
	if err != nil {
		fmt.Fprintf(stderr, "spatialbench: -backend: %v\n", err)
		return 2
	}

	// The daemon interprets "" as its own default backend, so only a
	// finite spec travels with server requests (same convention as the
	// JSON document's "machine" field).
	backendSpec := ""
	if bk.Finite() {
		backendSpec = bk.String()
	}

	if *server != "" {
		return runSweepOnServer(*server, *sweepName, *quick, *seed, *jsonOut, backendSpec, stdout, stderr)
	}
	if *sweepName != "" {
		fmt.Fprintln(stderr, "spatialbench: -sweep requires -server (local runs use -exp)")
		return 2
	}

	exps := experiments.All()

	if *list {
		names := make([]string, len(exps))
		for i, e := range exps {
			names[i] = fmt.Sprintf("  %-16s %-28s %s", e.Name, e.Artifact, e.Desc)
		}
		sort.Strings(names)
		fmt.Fprintln(stdout, "experiments:")
		for _, n := range names {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}

	if *expName != "all" {
		if _, known := experiments.ByName(*expName); !known {
			names := make([]string, len(exps))
			for i, e := range exps {
				names[i] = e.Name
			}
			sort.Strings(names)
			fmt.Fprintf(stderr, "unknown experiment %q; available: all, %s\n", *expName, strings.Join(names, ", "))
			return 2
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
			}
		}()
	}

	opts := append(pool.HarnessOptions(), harness.WithBackend(bk))
	if *progress {
		opts = append(opts, cliflags.ProgressLine(stderr))
	}
	if *cpCheck {
		opts = append(opts, harness.WithCriticalPathCheck())
	}
	cache, err := cacheFlag.Open()
	if err != nil {
		fmt.Fprintf(stderr, "spatialbench: -cache: %v\n", err)
		return 2
	}
	if cache != nil {
		opts = append(opts, harness.WithCache(cache))
		// Hit/miss counts are reported after the run, on stderr only:
		// stdout must stay byte-identical between cold and warm runs.
		defer cacheFlag.ReportStats(stderr, "spatialbench", cache)
	}

	// Observability sinks are shared by every worker, so they go behind one
	// lock; the cost is per-message, which only matters when tracing is on.
	var sinks []trace.Sink
	var chrome *trace.ChromeSink
	var heat *trace.Heatmap
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(stderr, "trace: %v\n", err)
			return 1
		}
		traceFile = f
		chrome = trace.NewChromeSink(f)
		sinks = append(sinks, chrome)
	}
	if *heatOut != "" {
		heat = trace.NewHeatmap()
		if bk.Finite() {
			// Fold the heatmap onto the same physical fabric the machines
			// charge costs on, so the CSV shows load on physical links.
			heat.SetFabric(bk.W, bk.H, bk.Block, bk.Kind == machine.BackendTorus)
		}
		sinks = append(sinks, heat)
	}
	if len(sinks) > 0 {
		opts = append(opts, harness.WithSink(trace.Synchronized(trace.Multi(sinks...))))
	}

	var selected []experiments.Experiment
	for _, e := range exps {
		if *expName == "all" || *expName == e.Name {
			selected = append(selected, e)
		}
	}
	experiments.Run(harness.New(*seed, opts...),
		experiments.Config{Quick: *quick, CSV: *csv, JSON: *jsonOut, Out: stdout}, selected...)

	if chrome != nil {
		if err := chrome.Close(); err != nil {
			fmt.Fprintf(stderr, "trace: %v\n", err)
			return 1
		}
		if err := traceFile.Close(); err != nil {
			fmt.Fprintf(stderr, "trace: %v\n", err)
			return 1
		}
	}
	if heat != nil {
		f, err := os.Create(*heatOut)
		if err != nil {
			fmt.Fprintf(stderr, "heatmap: %v\n", err)
			return 1
		}
		err = heat.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(stderr, "heatmap: %v\n", err)
			return 1
		}
	}
	return 0
}

// runSweepOnServer submits one registered sweep to a spatiald daemon and
// prints its rows (tab-separated, or the raw result document with -json).
// "-sweep list" asks the local registry for the runnable names.
func runSweepOnServer(server, name string, quick bool, seed int64, jsonOut bool, backendSpec string, stdout, stderr io.Writer) int {
	if name == "list" {
		fmt.Fprintln(stdout, "registered sweeps (run with -server URL -sweep NAME):")
		for _, n := range experiments.BoundSweeps(quick).Names() {
			fmt.Fprintf(stdout, "  %s\n", n)
		}
		return 0
	}
	if name == "" {
		fmt.Fprintln(stderr, "spatialbench: -server requires -sweep NAME (\"list\" to enumerate)")
		return 2
	}
	c := &service.Client{Base: server}
	id, err := c.SubmitSweep(service.SweepRequest{Name: name, Quick: quick, Seed: seed, Backend: backendSpec})
	if err != nil {
		fmt.Fprintf(stderr, "spatialbench: %v\n", err)
		return 2
	}
	info, err := c.Wait(context.Background(), id, 250*time.Millisecond, nil)
	if err != nil {
		fmt.Fprintf(stderr, "spatialbench: %v\n", err)
		return 2
	}
	if info.Status != service.StatusDone {
		fmt.Fprintf(stderr, "spatialbench: job %s %s: %s\n", id, info.Status, info.Error)
		return 2
	}
	fmt.Fprintf(stderr, "spatialbench: server job %s: %d/%d points from cache\n", id, info.CacheHits, info.Progress.Total)
	doc, err := c.Result(id)
	if err != nil {
		fmt.Fprintf(stderr, "spatialbench: %v\n", err)
		return 2
	}
	if jsonOut {
		stdout.Write(doc)
		fmt.Fprintln(stdout)
		return 0
	}
	var res service.SweepResult
	if err := json.Unmarshal(doc, &res); err != nil {
		fmt.Fprintf(stderr, "spatialbench: bad result document: %v\n", err)
		return 2
	}
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = fmt.Sprint(v)
		}
		fmt.Fprintln(stdout, strings.Join(cells, "\t"))
	}
	return 0
}
