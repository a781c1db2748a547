// Command benchjson converts `go test -bench` text output (read from
// stdin) into a JSON document of per-benchmark numbers, so benchmark runs
// can be committed and diffed. Units become keys: "ns/op" -> "ns_per_op",
// "allocs/op" -> "allocs_per_op", and the repository's custom model-cost
// metrics ("energy/op", ...) come along for free. A benchmark run several
// times (go test -count N) is folded into one entry holding each metric's
// median over the runs, so a single sample taken in a slow or fast phase
// of a noisy host cannot decide a comparison on its own.
//
// With -o FILE the document is written to FILE; if FILE already exists its
// top-level "seed_baseline" object is preserved, so regenerated results
// keep the recorded pre-optimization numbers for comparison.
//
// With -compare FILE the parsed run is instead diffed against FILE's
// "benchmarks" object: every benchmark present in both whose name matches
// -match is checked, and the command exits 1 if any ns_per_op regresses by
// more than -tol (fractional, default 0.20) or any allocs_per_op grows
// beyond the same fractional tolerance — a zero-alloc baseline therefore
// fails on the first allocation. Benchmarks reporting a "shards" metric
// (b.ReportMetric(float64(shards), "shards")) additionally have the shard
// count echoed in the comparison, and a run whose shard count differs from
// the baseline's fails outright: timings at different parallelism are not
// comparable, and a regression must not hide behind one. Benchmarks
// reporting a "hit_rate" metric (the result-cache benchmarks) are treated
// more leniently: a hit-rate difference against the baseline is reported
// and exempts the benchmark from the ns/op gate — a cold cache is an
// expected state, not a configuration error. This is the
// `make bench-compare` regression gate.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -count 5 ./internal/machine/ | go run ./cmd/benchjson -o BENCH_machine.json
//	go test -run '^$' -bench . -benchmem -count 5 ./internal/machine/ | go run ./cmd/benchjson -compare BENCH_machine.json -tol 0.20
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// parse reads benchmark result lines and returns each benchmark's metrics,
// every metric the median of that benchmark's samples.
func parse(r *bufio.Scanner) map[string]map[string]float64 {
	samples := make(map[string]map[string][]float64)
	for r.Scan() {
		fields := strings.Fields(r.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
		iters, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		s := samples[name]
		if s == nil {
			s = make(map[string][]float64)
			samples[name] = s
		}
		s["iterations"] = append(s["iterations"], iters)
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := strings.ReplaceAll(fields[i+1], "/", "_per_")
			s[unit] = append(s[unit], v)
		}
	}
	benches := make(map[string]map[string]float64, len(samples))
	for name, s := range samples {
		res := make(map[string]float64, len(s))
		for unit, vs := range s {
			res[unit] = median(vs)
		}
		benches[name] = res
	}
	return benches
}

// median returns the middle of vs, or the mean of its two middle values
// when their number is even. It sorts vs in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// compareBenches reports current-vs-baseline ns_per_op and allocs_per_op
// for every benchmark in both maps whose name has the given prefix, and
// returns the number of regressions: ns_per_op beyond tol (fractional
// slowdown), or allocs_per_op grown beyond the same fraction. Allocation
// counts are exact, so any growth over a zero-alloc baseline regresses.
// Benchmarks missing from either side are reported but not counted as
// failures — sweeps grow new benchmarks, and baselines list retired ones.
func compareBenches(w io.Writer, cur, base map[string]map[string]float64, prefix string, tol float64) int {
	names := make([]string, 0, len(cur))
	for name := range cur {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	regressions := 0
	for _, name := range names {
		b, ok := base[name]
		if !ok {
			fmt.Fprintf(w, "  new      %-44s %12.1f ns/op (no baseline)\n", name, cur[name]["ns_per_op"])
			continue
		}
		curNs, baseNs := cur[name]["ns_per_op"], b["ns_per_op"]
		if baseNs == 0 {
			continue
		}
		delta := curNs/baseNs - 1
		status := "ok"
		// Benchmarks that exercise the result cache report their hit rate
		// (b.ReportMetric(hits/lookups, "hit_rate")). A run whose hit rate
		// differs from the baseline's measured something else — cached
		// lookups versus real simulation — so its ns/op delta is reported
		// but not gated: unlike a shard mismatch this is an expected state
		// difference (cold CI caches), not a configuration error.
		curH, curHasH := cur[name]["hit_rate"]
		baseH, baseHasH := b["hit_rate"]
		hitNote := ""
		gate := true
		switch {
		case curHasH && baseHasH && curH == baseH:
			hitNote = fmt.Sprintf(" [hit_rate %g]", curH)
		case curHasH || baseHasH:
			status = "HITRATE"
			gate = false
			hitNote = fmt.Sprintf(" [hit_rate %g -> %g: reported, not gated]", baseH, curH)
		}
		if gate && delta > tol {
			status = "REGRESSED"
		}
		curA, baseA := cur[name]["allocs_per_op"], b["allocs_per_op"]
		allocNote := ""
		if gate && curA > baseA && curA > baseA*(1+tol) {
			status = "ALLOCS"
			allocNote = fmt.Sprintf(" [allocs %g -> %g]", baseA, curA)
		}
		// Benchmarks that exercise shard-parallel rounds report their shard
		// count as a metric; a ns/op delta measured at a different shard
		// count than the baseline is not a like-for-like comparison, so a
		// mismatch fails rather than letting a regression (or a fake win)
		// hide behind a parallelism change.
		curS, baseS := cur[name]["shards"], b["shards"]
		shardNote := ""
		switch {
		case curS == baseS && curS != 0:
			shardNote = fmt.Sprintf(" [shards %g]", curS)
		case curS != baseS:
			status = "SHARDS"
			shardNote = fmt.Sprintf(" [shards %g -> %g: not comparable]", baseS, curS)
		}
		if status != "ok" && status != "HITRATE" {
			regressions++
		}
		fmt.Fprintf(w, "  %-8s %-44s %12.1f -> %10.1f ns/op (%+.1f%%)%s%s%s\n", status, name, baseNs, curNs, 100*delta, allocNote, shardNote, hitNote)
	}
	for name := range base {
		if strings.HasPrefix(name, prefix) {
			if _, ok := cur[name]; !ok {
				fmt.Fprintf(w, "  missing  %-44s (in baseline, not in this run)\n", name)
			}
		}
	}
	return regressions
}

func main() {
	out := flag.String("o", "", "output file (default stdout); an existing file's seed_baseline is preserved")
	compare := flag.String("compare", "", "baseline JSON file to diff against instead of emitting JSON")
	tol := flag.Float64("tol", 0.20, "with -compare: allowed fractional ns/op slowdown before failing")
	match := flag.String("match", "Benchmark", "with -compare: only check benchmarks with this name prefix")
	flag.Parse()

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	benches := parse(sc)
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(benches) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	if *compare != "" {
		data, err := os.ReadFile(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		var doc struct {
			Benchmarks map[string]map[string]float64 `json:"benchmarks"`
		}
		if err := json.Unmarshal(data, &doc); err != nil || len(doc.Benchmarks) == 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %s has no benchmarks object\n", *compare)
			os.Exit(1)
		}
		fmt.Printf("comparing against %s (tolerance %+.0f%% ns/op):\n", *compare, 100**tol)
		if n := compareBenches(os.Stdout, benches, doc.Benchmarks, *match, *tol); n > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed beyond %.0f%%\n", n, 100**tol)
			os.Exit(1)
		}
		return
	}

	doc := map[string]any{"benchmarks": benches}
	if *out != "" {
		if data, err := os.ReadFile(*out); err == nil {
			var old map[string]any
			if json.Unmarshal(data, &old) == nil {
				if sb, ok := old["seed_baseline"]; ok {
					doc["seed_baseline"] = sb
				}
			}
		}
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
