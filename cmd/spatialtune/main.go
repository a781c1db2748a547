// Command spatialtune searches the discrete layout/schedule space of the
// library's primitives — grid track, collective-tree arity, tile aspect
// ratio, sort-algorithm choice — and reports the energy-, depth- or
// EDP-minimal mapping per workload and problem size (see internal/tuner).
//
// Usage:
//
//	spatialtune                      # tune every workload, EDP objective
//	spatialtune -workload sort       # one workload
//	spatialtune -objective energy    # minimize energy (or: depth, edp)
//	spatialtune -quick               # smaller problem sizes (~seconds)
//	spatialtune -json                # full verdicts (all candidates, Pareto
//	                                 # fronts, per-objective winners) as JSON
//	spatialtune -list                # list tunable workloads and exit
//	spatialtune -cache DIR           # reuse previously simulated points
//	spatialtune -backend mesh:8x8:4  # tune on a folded finite fabric
//
// Each workload is measured by its registered sweep, bounds/tuned-<workload>
// (the rows the tuner/* conformance claims judge): every point evaluates
// all candidates on one input, so the verdict compares configurations, not
// workloads, and a -cache warmed by boundcheck serves the tune. Output is
// byte-identical for any -parallel/-shards/-batch combination at a fixed
// -seed, and for cold vs warm -cache runs; the table and -json bytes are
// a pure function of (workloads, sizes, seed).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/cliflags"
	"repro/internal/harness"
	"repro/internal/tuner"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is the -json document; the nightly workflow archives it as the
// tuner verdict artifact.
type report struct {
	Objective tuner.Objective `json:"objective"`
	Quick     bool            `json:"quick"`
	Seed      int64           `json:"seed"`
	Shards    int             `json:"shards"`
	Batch     bool            `json:"batch"`
	// Machine is the canonical finite-backend spec, omitted for the ideal
	// model so pre-backend tuner artifacts stay byte-identical.
	Machine   string         `json:"machine,omitempty"`
	Workloads []tuner.Result `json:"workloads"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spatialtune", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "all", "workload to tune (see -list)")
		objName      = fs.String("objective", "edp", "objective to minimize: energy, depth or edp")
		quick        = fs.Bool("quick", false, "smaller problem sizes (seconds instead of minutes)")
		jsonOut      = fs.Bool("json", false, "emit the full verdicts as JSON")
		list         = fs.Bool("list", false, "list tunable workloads and exit")
		progress     = fs.Bool("progress", false, "report completion and ETA on stderr")
		seed         = cliflags.AddSeed(fs)
		pool         = cliflags.AddPool(fs)
		cacheFlag    = cliflags.AddCache(fs, "")
		backend      = cliflags.AddBackend(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bk, err := backend.Parse()
	if err != nil {
		fmt.Fprintf(stderr, "spatialtune: -backend: %v\n", err)
		return 2
	}

	obj, err := tuner.ParseObjective(*objName)
	if err != nil {
		fmt.Fprintf(stderr, "spatialtune: %v\n", err)
		return 2
	}

	if *list {
		t := analysis.NewTable("workload", "candidates", "description")
		for _, w := range tuner.Workloads() {
			t.AddRow(w.Name, len(w.Candidates), w.Desc)
		}
		fmt.Fprint(stdout, t.String())
		return 0
	}

	workloads := tuner.Workloads()
	if *workloadName != "all" {
		w, ok := tuner.ByName(*workloadName)
		if !ok {
			fmt.Fprintf(stderr, "spatialtune: unknown workload %q (use -list)\n", *workloadName)
			return 2
		}
		workloads = []tuner.Workload{w}
	}

	opts := append(pool.HarnessOptions(), harness.WithLargestFirst(), harness.WithBackend(bk))
	cache, err := cacheFlag.Open()
	if err != nil {
		fmt.Fprintf(stderr, "spatialtune: -cache: %v\n", err)
		return 2
	}
	if cache != nil {
		opts = append(opts, harness.WithCache(cache))
	}
	if *progress {
		opts = append(opts, cliflags.ProgressLine(stderr))
	}

	r := harness.New(*seed, opts...)
	rep := report{Objective: obj, Quick: *quick, Seed: *seed, Shards: pool.Shards, Batch: pool.Batch}
	if bk.Finite() {
		rep.Machine = bk.String()
	}
	rep.Workloads = tuner.Tune(r, *quick, workloads...)
	cacheFlag.ReportStats(stderr, "spatialtune", cache)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(stderr, "spatialtune: %v\n", err)
			return 2
		}
		return 0
	}
	writeTable(stdout, rep, obj)
	return 0
}

// writeTable renders the per-size winners under the chosen objective,
// next to the row-major baseline's EDP so the gain is visible at a
// glance.
func writeTable(w io.Writer, rep report, obj tuner.Objective) {
	t := analysis.NewTable("workload", "n", "best mapping ("+string(obj)+")", "energy", "depth", "edp", "baseline edp", "edp gain")
	for _, res := range rep.Workloads {
		for _, sz := range res.Sizes {
			best := sz.Best(obj)
			gain := "n/a"
			baseEDP := "n/a"
			if base, ok := tuner.Baseline(sz.Candidates); ok {
				baseEDP = fmt.Sprintf("%.3g", base.EDP())
				gain = fmt.Sprintf("%.2fx", base.EDP()/best.EDP())
			}
			t.AddRow(res.Workload, sz.N, best.Mapping.String(),
				best.Energy, best.Depth, fmt.Sprintf("%.3g", best.EDP()), baseEDP, gain)
		}
	}
	fmt.Fprint(w, t.String())
}
