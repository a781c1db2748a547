package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/bounds"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/machine"
)

// The conformance workload is the CI gate: all quick claims over
// experiments.BoundSweeps(true), driven through the calls bounds.Check
// makes so that every sweep gets its own span. One worker, because with
// two the largest graph point becomes the critical path and hides gains
// everywhere else.
//
// The gate runs at the seed CI and the nightly run use, the one the
// claims are calibrated at: quick claims are statistical fits over a few
// sizes, and at other seeds some of them miss (table1/selection/depth
// and graph/bfs/depth-powerlaw-polylog, see README.md). At that seed the
// whole verdict document is checked against its golden copy on every
// run. The workload seed decides the order in which the sweeps run; the
// document must not depend on it.
const (
	confWorkers = 1
	confShards  = 1
	confSeed    = 1
	// Set-up takes well under a millisecond, so it is timed in groups of
	// confSetupGroup, setupGap apart: confSetupGroups groups before the
	// first pass and as many after each pass. Its time does not follow the
	// host's slow drift as wall_s does but its faster swings, which
	// samples spread over the whole run average out. The median of all of
	// them is setup_s.
	confSetupGroups = 7
	confSetupGroup  = 50
	// confPassSeconds is the expected length of one pass on a 2-CPU host;
	// -seconds / confPassSeconds (at least one) passes run.
	confPassSeconds = 18.0
)

// sweepMetric maps a bound sweep to the per-layer metric that collects
// its time.
func sweepMetric(sweep string) string {
	switch sweep {
	case "bounds/backend-sort", "bounds/backend-congestion":
		return "machine.backend_sweeps_s"
	case "bounds/sortnet-large", "bounds/sort-ablation":
		return "sortnet.sweeps_s"
	case "bounds/scan", "bounds/scan-ablation", "bounds/reduce-ablation", "bounds/collectives":
		return "collectives.sweeps_s"
	case "bounds/treefix":
		return "tree.sweeps_s"
	case "bounds/graph-bfs":
		return "graph.bfs_s"
	case "bounds/graph-cc":
		return "graph.cc_s"
	case "bounds/graph-pagerank":
		return "graph.pagerank_s"
	case "bounds/graph-triangles":
		return "graph.triangles_s"
	case "bounds/spmv", "bounds/spmv-vs-pram":
		return "spmv.sweeps_s"
	}
	if strings.HasPrefix(sweep, "bounds/tuned-") {
		return "tuner.sweeps_s"
	}
	return "core.sweeps_s"
}

// layerOf is the module a per-layer metric belongs to.
func layerOf(metric string) string {
	return metric[:strings.IndexByte(metric, '.')]
}

// confRunner is the runner `boundcheck -quick -parallel 1 -shards 1`
// builds: batched sends, largest-first scheduling, the ideal backend.
func confRunner(seed int64) *harness.Runner {
	return harness.New(seed, harness.WithWorkers(confWorkers), harness.WithLargestFirst(),
		harness.WithBackend(machine.Ideal()), harness.WithBatchSends())
}

// distinctSweeps lists each claim's sweep once, in claim order, as
// bounds.Check enqueues them.
func distinctSweeps(claims []bounds.Claim) []string {
	var names []string
	seen := make(map[string]bool)
	for _, c := range claims {
		if !seen[c.Sweep] {
			seen[c.Sweep] = true
			names = append(names, c.Sweep)
		}
	}
	return names
}

func runConformance(p params) *outcome {
	o := newOutcome("conformance", p)
	passes := max(1, int(math.Round(float64(p.seconds)/confPassSeconds)))
	o.config("workers", confWorkers)
	o.config("shards", confShards)
	o.config("batch", true)
	o.config("backend", "ideal")
	o.config("passes", passes)

	// Set-up: what `boundcheck -quick` does before its first sweep. A
	// group allocates about the heap size of a fresh process's first
	// collection, so the collector stays off while it runs: otherwise the
	// repetitions' own garbage would put collections into about half of
	// the samples. Each call of setUp leaves a fresh runner for the next
	// pass.
	var reg *harness.Registry
	var claims []bounds.Claim
	var runner *harness.Runner
	setUp := func() {
		for g := 0; g < confSetupGroups; g++ {
			betweenSetups()
			gcPercent := debug.SetGCPercent(-1)
			for i := 0; i < confSetupGroup; i++ {
				t0 := time.Now()
				reg = experiments.BoundSweeps(true)
				claims = bounds.Registry()
				runner = confRunner(confSeed)
				o.SetupS = append(o.SetupS, time.Since(t0).Seconds())
			}
			debug.SetGCPercent(gcPercent)
		}
	}
	setUp()
	names := distinctSweeps(claims)
	o.config("claims", len(claims))
	o.config("sweeps", len(names))
	o.config("gate_seed", confSeed)
	order := rand.New(rand.NewSource(p.seed))

	var wall time.Duration
	var rowsSimulated int64
	startTimed()
	for pass := 0; pass < passes; pass++ {
		perm := order.Perm(len(names))
		job := fmt.Sprintf("pass%d", pass)
		var rep bounds.Report
		sweepErr := make(map[string]error)
		rt := readRuntime()
		t0 := time.Now()
		root := p.rec.begin(0, "conformance pass", "bench", job)
		rowsBySweep := make(map[string][]harness.Row, len(names))
		for _, i := range perm {
			name := names[i]
			metric := sweepMetric(name)
			id := p.rec.begin(root, "harness.Registry.Run "+name, layerOf(metric), job)
			var rows []harness.Row
			err := protect(func() {
				var err error
				rows, err = reg.Run(runner, name)
				if err != nil {
					panic(err)
				}
			})
			p.rec.end(id, 0, 0)
			rowsBySweep[name] = rows
			sweepErr[name] = err
			rep.Sweeps = append(rep.Sweeps, bounds.SweepStat{Name: name, Rows: len(rows)})
		}
		sort.Slice(rep.Sweeps, func(i, j int) bool { return rep.Sweeps[i].Name < rep.Sweeps[j].Name })
		for _, c := range claims {
			id := p.rec.begin(root, "bounds.Claim.Eval", "bounds", job)
			rep.Verdicts = append(rep.Verdicts, c.Eval(rowsBySweep[c.Sweep]))
			p.rec.end(id, 0, 0)
		}
		id := p.rec.begin(root, "bounds.MarshalReportJSON", "bounds", job)
		doc, docErr := bounds.MarshalReportJSON(rep, bounds.RunMeta{Quick: true, Seed: confSeed, Shards: confShards, Batch: true})
		p.rec.end(id, 0, 0)
		p.rec.end(root, 0, 0)
		wall += time.Since(t0)
		rt.since(o)
		rowsSimulated += runner.RowsSimulated()

		// Verification, outside the timed section.
		docProblems := compareDocs(doc, goldenConformance, docErr)
		if msg, ok := docProblems[-1]; ok {
			// A difference outside every verdict (header or sweep stats) is
			// charged to the first claim.
			docProblems[0] = strings.TrimPrefix(docProblems[0]+"; ", "; ") + msg
		}
		for i, v := range rep.Verdicts {
			var problems []string
			if err := sweepErr[v.Sweep]; err != nil {
				problems = append(problems, fmt.Sprintf("sweep %s: %v", v.Sweep, err))
			}
			if !v.Pass {
				problems = append(problems, "claim does not hold: "+v.Detail)
			}
			if msg, ok := docProblems[i]; ok {
				problems = append(problems, msg)
			}
			o.op("claim "+v.ID, problems...)
		}
		setUp()
	}
	o.WallS = wall.Seconds()
	o.e2e("claims_per_s", float64(len(claims)*passes)/o.WallS, "1/s", "quick claims evaluated per second of wall_s")
	o.Layer["harness.rows_simulated"] = float64(rowsSimulated)
	if p.rec != nil {
		spans := p.rec.snapshot()
		self := selfTimes(spans)
		for i, s := range spans {
			sec := float64(self[i]) / 1e9
			switch {
			case strings.HasPrefix(s.Name, "harness.Registry.Run "):
				o.Layer[sweepMetric(strings.TrimPrefix(s.Name, "harness.Registry.Run "))] += sec
			case s.Name == "bounds.Claim.Eval":
				o.Layer["bounds.eval_s"] += sec
			case s.Name == "bounds.MarshalReportJSON":
				o.Layer["bounds.marshal_s"] += sec
			}
		}
	}
	return o
}

// compareDocs checks a verdict document against its golden copy. It
// returns the problems keyed by verdict index; key -1 holds a difference
// outside the verdicts.
func compareDocs(doc, golden []byte, marshalErr error) map[int]string {
	problems := make(map[int]string)
	if marshalErr != nil {
		problems[-1] = "marshal: " + marshalErr.Error()
		return problems
	}
	if bytes.Equal(doc, golden) {
		return problems
	}
	var got, want struct {
		Verdicts []json.RawMessage `json:"verdicts"`
	}
	if json.Unmarshal(doc, &got) != nil || json.Unmarshal(golden, &want) != nil {
		problems[-1] = "document is not valid JSON"
		return problems
	}
	for i := range got.Verdicts {
		if i >= len(want.Verdicts) {
			problems[i] = "verdict not in the golden document"
		} else if !bytes.Equal(got.Verdicts[i], want.Verdicts[i]) {
			problems[i] = fmt.Sprintf("verdict differs from golden: got %s, want %s", got.Verdicts[i], want.Verdicts[i])
		}
	}
	if len(problems) == 0 {
		problems[-1] = "document differs from the golden copy outside the verdicts"
	}
	return problems
}
