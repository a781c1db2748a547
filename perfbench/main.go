// Command perfbench is the repository's benchmark. It runs three
// workloads — conformance, large-n and daemon — each in its own child
// process, checks every answer and every simulated cost, and prints the
// end-to-end metrics by name with their units. With -trace 1 it runs the
// workload twice, untraced and then traced, and prints the per-layer
// table built from spans recorded around each call the benchmark makes
// into a layer's public functions. See README.md for the workloads, the
// metrics and how a performance claim is worded against them.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload conformance --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Constants of every run. They are fixed here, never taken from the
// machine or the CLIs' GOMAXPROCS-sized defaults, so that two commits
// always measure the same configuration; each run echoes them.
const (
	gomaxprocs  = 2
	defaultSeed = 1
	// childTimeout bounds every workload process; a run must end within
	// 180 s, and a traced run starts two of them back to back.
	childTimeout = 85 * time.Second
	// selfTolerance is how far the summed self times may stray from the
	// summed lane durations before the trace counts as broken.
	selfTolerance = 0.01
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEnd is what an untraced run reports for every workload. They are
// the only end-to-end metrics that exist on all three workloads; the
// workload-specific ones are printed beside them (see outcome.E2E).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"max_rss_mb", "MB"},
}

// perLayer is what a traced run reports for every workload. A layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"machine.place_s", "s"},
	{"machine.reset_s", "s"},
	{"machine.msgs", "count"},
	{"machine.touched_pes", "count"},
	{"machine.fold_overhead", "ratio"},
	{"machine.backend_sweeps_s", "s"},
	{"sortnet.shearsort_ns_per_msg", "ns"},
	{"sortnet.bitonic_ns_per_msg", "ns"},
	{"sortnet.bitonic_fold_ns_per_msg", "ns"},
	{"collectives.scan_ns_per_msg", "ns"},
	{"collectives.scan_allocs_per_msg", "count"},
	{"collectives.scantrack_ns_per_msg", "ns"},
	{"sortnet.sweeps_s", "s"},
	{"collectives.sweeps_s", "s"},
	{"tree.sweeps_s", "s"},
	{"core.sweeps_s", "s"},
	{"graph.bfs_s", "s"},
	{"graph.cc_s", "s"},
	{"graph.pagerank_s", "s"},
	{"graph.triangles_s", "s"},
	{"spmv.sweeps_s", "s"},
	{"tuner.sweeps_s", "s"},
	{"bounds.eval_s", "s"},
	{"bounds.marshal_s", "s"},
	{"simcache.hits", "count"},
	{"simcache.misses", "count"},
	{"simcache.hit_ratio", "ratio"},
	{"harness.rows_simulated", "count"},
	{"service.rows_served", "count"},
	{"service.sweeps_coalesced", "count"},
	{"service.submit_ms_p50", "ms"},
	{"service.result_ms_p50", "ms"},
	{"service.polls_per_job", "count"},
	{"service.warm_job_ms_p50", "ms"},
	{"service.cold_job_ms_p50", "ms"},
	{"service.cold_job_ms_p99", "ms"},
	{"service.jobs_failed", "count"},
	{"runtime.heap_alloc_mb", "MB"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"bench.self_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.self_gap_frac", "ratio"},
}

// params is what a workload receives: the seed its inputs derive from,
// the run length, and the span recorder (nil in the untraced run).
type params struct {
	seed    int64
	seconds int
	rec     *recorder
}

// e2eValue is one workload-specific end-to-end number, printed with its
// unit and, for percentiles, its sample count.
type e2eValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// outcome is what a workload process hands back to the parent.
type outcome struct {
	Workload  string             `json:"workload"`
	Config    []string           `json:"config"`
	SetupS    []float64          `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	E2E       []e2eValue         `json:"e2e"`
	Layer     map[string]float64 `json:"layer"`
	Table     []tableRow         `json:"table,omitempty"`
	SelfSumS  float64            `json:"self_sum_s"`
	RootSumS  float64            `json:"root_sum_s"`
	// Lanes is how many root spans run at once: the daemon's clients
	// overlap, the other workloads' root spans follow one another.
	Lanes int `json:"lanes"`
}

func newOutcome(name string, p params) *outcome {
	o := &outcome{Workload: name, Layer: make(map[string]float64), Lanes: 1}
	o.config("GOMAXPROCS", gomaxprocs)
	o.config("seed", p.seed)
	o.config("seconds", p.seconds)
	return o
}

func (o *outcome) config(key string, v any) {
	o.Config = append(o.Config, fmt.Sprintf("%s=%v", key, v))
}

// op records one attempted operation (a claim, a call or a job) and the
// problems found with it; any problem makes it a failed operation. Every
// problem is printed.
func (o *outcome) op(what string, problems ...string) {
	o.Attempted++
	if len(problems) == 0 {
		return
	}
	o.Failed++
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: FAIL %s: %s\n", o.Workload, what, p)
	}
}

func (o *outcome) e2e(name string, v float64, unit, note string) {
	o.E2E = append(o.E2E, e2eValue{name, v, unit, note})
}

// pctNote describes a percentile's sample base, as every reported
// percentile must.
func pctNote(n, beyond int) string {
	note := fmt.Sprintf("n=%d, %d beyond", n, beyond)
	if beyond < minBeyond {
		note += fmt.Sprintf(" (fewer than %d: not a stable percentile)", minBeyond)
	}
	return note
}

// runtimeCounters reads the Go runtime's cumulative allocation and GC
// counters; the difference across a timed section is its runtime cost.
type runtimeCounters struct{ allocBytes, gcCycles, gcCPU float64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64()), s[2].Value.Float64()}
}

// since adds the runtime cost of the section that began at c.
func (c runtimeCounters) since(o *outcome) {
	now := readRuntime()
	o.Layer["runtime.heap_alloc_mb"] += (now.allocBytes - c.allocBytes) / (1 << 20)
	o.Layer["runtime.gc_cycles"] += now.gcCycles - c.gcCycles
	o.Layer["runtime.gc_cpu_s"] += now.gcCPU - c.gcCPU
}

// setupGap separates set-up samples. The host's speed changes from one
// tenth of a second to the next, so samples taken in one burst share its
// speed; spread over seconds, their median is steadier from run to run.
const setupGap = 100 * time.Millisecond

// betweenSetups collects the previous set-up's garbage, so that it stays
// out of the next sample's timing, and waits setupGap.
func betweenSetups() {
	runtime.GC()
	time.Sleep(setupGap)
}

// startTimed is called between set-up and the timed section. It returns
// the set-up's garbage to the operating system and resets the process's
// peak RSS, so that max_rss_mb measures the timed section from a heap
// like a fresh process's, not the benchmark's repeated set-ups.
func startTimed() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cannot reset the peak RSS, max_rss_mb includes set-up: %v\n", err)
	}
}

// workload is one benchmark workload.
type workload struct {
	name string
	run  func(p params) *outcome
}

var workloads = []workload{
	{"conformance", runConformance},
	{"large-n", runLargeN},
	{"daemon", runDaemon},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload to run: conformance, large-n, daemon or all")
		seed    = fs.Int64("seed", defaultSeed, "seed the workload's inputs derive from")
		seconds = fs.Int("seconds", 30, "run length the workload's fixed amount of work is sized for")
		traceOn = fs.Int("trace", 0, "1 runs the workload untraced and then traced and prints per-layer metrics")
		child   = fs.String("child", "", "internal: run this workload in this process and print its outcome")
		traced  = fs.Bool("traced", false, "internal: record spans in the child")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *seconds > 60 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be between 1 and 60")
		return 2
	}
	if *seed < 0 || *seed >= 1<<40 {
		fmt.Fprintln(os.Stderr, "perfbench: -seed must be in [0, 2^40)")
		return 2
	}
	if *child != "" {
		return runChild(*child, *seed, *seconds, *traced)
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	var names []string
	if *name == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, ok := lookup(*name); ok {
		names = []string{*name}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have conformance, large-n, daemon, all)\n", *name)
		return 2
	}
	return runParent(os.Stdout, names, *seed, *seconds, *traceOn == 1)
}

// runChild runs one workload in this process and prints its outcome as
// JSON on standard output.
func runChild(name string, seed int64, seconds int, traced bool) int {
	w, ok := lookup(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
		return 2
	}
	runtime.GOMAXPROCS(gomaxprocs)
	p := params{seed: seed, seconds: seconds}
	if traced {
		p.rec = newRecorder()
	}
	o := w.run(p)
	if traced {
		spans := p.rec.snapshot()
		self := selfTimes(spans)
		o.Table = selfTable(spans, self)
		o.SelfSumS, o.RootSumS = sums(spans, self)
		var benchSelf float64
		for i, s := range spans {
			if s.Layer == "bench" {
				benchSelf += float64(self[i]) / 1e9
			}
		}
		o.Layer["bench.self_s"] = benchSelf
		if exe, err := os.Executable(); err == nil {
			path := filepath.Join(filepath.Dir(exe), fmt.Sprintf("spans-%s-seed%d.json", name, seed))
			if err := writeSpans(path, spans); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
			}
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(o); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// childRun is one finished workload process.
type childRun struct {
	out   *outcome
	rssMB float64
}

// spawn runs one workload in a child process of this binary and waits
// for it to end; a child that overruns childTimeout is killed.
func spawn(ctx context.Context, name string, seed int64, seconds int, traced bool) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	args := []string{"-child", name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds)}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return childRun{}, fmt.Errorf("workload %s: %w", name, err)
	}
	var o outcome
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &o); err != nil {
		return childRun{}, fmt.Errorf("workload %s: bad outcome: %w", name, err)
	}
	var rss float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return childRun{&o, rss}, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runParent runs each named workload in its own process and prints the
// report; with several workloads the metric names in the JSON line are
// prefixed with the workload.
func runParent(w io.Writer, names []string, seed int64, seconds int, traced bool) int {
	total := result{Correct: true, Metrics: make(map[string]metricValue)}
	for _, name := range names {
		r, err := measure(w, name, seed, seconds, traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(names) > 1 {
				k = name + "/" + k
			}
			total.Metrics[k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	return 0
}

// measure runs one workload (untraced, and traced after it when asked),
// prints its report and returns its JSON result.
func measure(w io.Writer, name string, seed int64, seconds int, traced bool) (result, error) {
	ctx := context.Background()
	plain, err := spawn(ctx, name, seed, seconds, false)
	if err != nil {
		return result{}, err
	}
	o := plain.out
	fmt.Fprintf(w, "== %s  seed %d  %d s\n", name, seed, seconds)
	fmt.Fprintf(w, "config: %s\n", strings.Join(o.Config, " "))
	setup := median(o.SetupS)
	fmt.Fprintln(w, "end-to-end (untraced run):")
	setupNote := fmt.Sprintf("median of %d set-ups", len(o.SetupS))
	if len(o.SetupS) >= 2 {
		q1, _, q3 := quartiles(o.SetupS)
		setupNote += fmt.Sprintf(", quartiles %.6g..%.6g", q1, q3)
	}
	failFrac := float64(o.Failed) / float64(max(o.Attempted, 1))
	printMetric(w, "setup_s", setup, "s", setupNote)
	printMetric(w, "wall_s", o.WallS, "s", "timed section, verification excluded")
	printMetric(w, "max_rss_mb", plain.rssMB, "MB", "peak RSS of the workload process from the timed section on")
	for _, e := range o.E2E {
		printMetric(w, e.Name, e.Value, e.Unit, e.Note)
	}
	printMetric(w, "fail_frac", failFrac, "ratio", fmt.Sprintf("%d of %d operations failed", o.Failed, o.Attempted))

	r := result{
		Correct:   o.Failed == 0 && o.Attempted > 0,
		Attempted: o.Attempted,
		Failed:    o.Failed,
		Metrics:   make(map[string]metricValue),
	}
	values := map[string]float64{"setup_s": setup, "wall_s": o.WallS, "max_rss_mb": plain.rssMB}
	for _, m := range endToEnd {
		r.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
	}
	if !traced {
		return r, nil
	}

	tr, err := spawn(ctx, name, seed, seconds, true)
	if err != nil {
		return result{}, err
	}
	t := tr.out
	fmt.Fprintln(w, "per-span self time (traced run):")
	printTable(w, t.Table)
	t.Layer["trace.overhead_s"] = t.WallS - o.WallS
	t.Layer["trace.overhead_frac"] = (t.WallS - o.WallS) / o.WallS
	laneWall := float64(t.Lanes) * t.WallS
	gap := math.Abs(t.SelfSumS-laneWall) / laneWall
	t.Layer["trace.self_gap_frac"] = gap
	fmt.Fprintf(w, "self times sum to %.4f s (root spans %.4f s); traced wall_s %.4f s x %d lane(s) = %.4f s (gap %.3g%%, tolerance %.3g%%)\n",
		t.SelfSumS, t.RootSumS, t.WallS, t.Lanes, laneWall, 100*gap, 100*selfTolerance)
	fmt.Fprintf(w, "tracing overhead: traced wall_s %.4f s - untraced wall_s %.4f s = %.4f s\n", t.WallS, o.WallS, t.WallS-o.WallS)
	fmt.Fprintln(w, "per-layer (traced run):")
	// The self-time check counts as one more operation of the traced run.
	r = result{
		Correct:   r.Correct && t.Failed == 0 && gap <= selfTolerance,
		Attempted: o.Attempted + t.Attempted + 1,
		Failed:    o.Failed + t.Failed,
		Metrics:   make(map[string]metricValue),
	}
	if gap > selfTolerance {
		fmt.Fprintf(os.Stderr, "perfbench: %s: FAIL trace: self times miss the traced wall time by %.3g%%\n", name, 100*gap)
		r.Failed++
	}
	for _, m := range perLayer {
		r.Metrics[m.Name] = metricValue{t.Layer[m.Name], m.Unit}
		printMetric(w, m.Name, t.Layer[m.Name], m.Unit, "")
	}
	return r, nil
}

func printMetric(w io.Writer, name string, v float64, unit, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(w, "  %-34s %14.6g %-6s%s\n", name, v, unit, note)
}

// protect runs f and turns a panic into an error, so that a panicking
// call counts as a failed operation instead of ending the run.
func protect(f func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	f()
	return nil
}
