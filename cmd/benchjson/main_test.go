package main

import (
	"bufio"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro/internal/machine
BenchmarkSendChain-8         	   12345	     97531.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkMachineReset-8      	  500000	      2000 ns/op	      32 B/op	       1 allocs/op
BenchmarkParRound/n=1024-8   	    8000	    150000 ns/op	  123456 energy/op
PASS
ok  	repro/internal/machine	12.3s
`

func TestParse(t *testing.T) {
	benches := parse(bufio.NewScanner(strings.NewReader(sampleOutput)))
	if len(benches) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(benches), benches)
	}
	chain := benches["BenchmarkSendChain"]
	if chain == nil {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if chain["ns_per_op"] != 97531.0 || chain["iterations"] != 12345 || chain["allocs_per_op"] != 0 {
		t.Errorf("SendChain = %v", chain)
	}
	par := benches["BenchmarkParRound/n=1024"]
	if par == nil || par["energy_per_op"] != 123456 {
		t.Errorf("custom metric not parsed: %v", par)
	}
}

// TestParseFoldsRepeatsToMedian: the samples of a benchmark run with
// go test -count fold into one entry holding each metric's median.
func TestParseFoldsRepeatsToMedian(t *testing.T) {
	const repeated = `BenchmarkMachinePar/msgs=16-2   	  100	  900 ns/op	  0 allocs/op
BenchmarkMachinePar/msgs=16-2   	  300	  500 ns/op	  2 allocs/op
BenchmarkMachinePar/msgs=16-2   	  200	 4000 ns/op	  0 allocs/op
BenchmarkMachineWires-2         	   10	   70 ns/op
BenchmarkMachineWires-2         	   30	   50 ns/op
BenchmarkMachineSendChain-2     	    7	   33 ns/op
`
	benches := parse(bufio.NewScanner(strings.NewReader(repeated)))
	if len(benches) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(benches), benches)
	}
	for name, want := range map[string]map[string]float64{
		"BenchmarkMachinePar/msgs=16": {"iterations": 200, "ns_per_op": 900, "allocs_per_op": 0},
		"BenchmarkMachineWires":       {"iterations": 20, "ns_per_op": 60}, // even count: mean of the middle two
		"BenchmarkMachineSendChain":   {"iterations": 7, "ns_per_op": 33},
	} {
		got := benches[name]
		if len(got) != len(want) {
			t.Errorf("%s = %v, want %v", name, got, want)
			continue
		}
		for unit, v := range want {
			if got[unit] != v {
				t.Errorf("%s %s = %g, want the median %g", name, unit, got[unit], v)
			}
		}
	}
}

func bench(ns float64) map[string]float64 { return map[string]float64{"ns_per_op": ns} }

func TestCompareBenches(t *testing.T) {
	base := map[string]map[string]float64{
		"BenchmarkMachineReset": bench(100),
		"BenchmarkSendChain":    bench(200),
		"BenchmarkRetired":      bench(50),
		"BenchmarkOther":        bench(10),
	}
	cur := map[string]map[string]float64{
		"BenchmarkMachineReset": bench(115), // +15%: within 20% tolerance
		"BenchmarkSendChain":    bench(300), // +50%: regression
		"BenchmarkBrandNew":     bench(70),  // no baseline: reported, not failed
		"BenchmarkOther":        bench(1000),
	}

	var b strings.Builder
	n := compareBenches(&b, cur, base, "Benchmark", 0.20)
	if n != 2 {
		t.Errorf("regressions = %d, want 2 (SendChain, Other)\n%s", n, b.String())
	}
	out := b.String()
	for _, want := range []string{"REGRESSED", "BenchmarkSendChain", "new", "BenchmarkBrandNew", "missing", "BenchmarkRetired"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	// Prefix filtering confines the gate to machine-core benchmarks.
	b.Reset()
	if n := compareBenches(&b, cur, base, "BenchmarkMachine", 0.20); n != 0 {
		t.Errorf("prefix-filtered regressions = %d, want 0\n%s", n, b.String())
	}

	// Improvements never fail, however large.
	b.Reset()
	if n := compareBenches(&b, map[string]map[string]float64{"BenchmarkMachineReset": bench(1)}, base, "Benchmark", 0.20); n != 0 {
		t.Errorf("improvement counted as regression\n%s", b.String())
	}
}

// benchA builds a result with both timing and allocation counts.
func benchA(ns, allocs float64) map[string]float64 {
	return map[string]float64{"ns_per_op": ns, "iterations": 1000, "allocs_per_op": allocs}
}

func TestCompareBenchesAllocs(t *testing.T) {
	base := map[string]map[string]float64{
		"BenchmarkZeroAlloc": benchA(100, 0),
		"BenchmarkSomeAlloc": benchA(100, 10),
		"BenchmarkDrop":      benchA(100, 5),
	}

	// Growing over a zero-alloc baseline fails regardless of tolerance;
	// growth within tolerance on a nonzero baseline and any reduction pass.
	cur := map[string]map[string]float64{
		"BenchmarkZeroAlloc": benchA(100, 1),
		"BenchmarkSomeAlloc": benchA(100, 11),
		"BenchmarkDrop":      benchA(100, 0),
	}
	var b strings.Builder
	if n := compareBenches(&b, cur, base, "Benchmark", 0.20); n != 1 {
		t.Errorf("regressions = %d, want 1 (ZeroAlloc)\n%s", n, b.String())
	}
	out := b.String()
	if !strings.Contains(out, "ALLOCS") || !strings.Contains(out, "allocs 0 -> 1") {
		t.Errorf("report missing alloc diagnostic:\n%s", out)
	}

	// Growth beyond tolerance on a nonzero baseline fails too.
	b.Reset()
	cur = map[string]map[string]float64{"BenchmarkSomeAlloc": benchA(100, 13)}
	if n := compareBenches(&b, cur, base, "Benchmark", 0.20); n != 1 {
		t.Errorf("regressions = %d, want 1 (SomeAlloc +30%%)\n%s", n, b.String())
	}

	// A bench failing on both time and allocations counts once.
	b.Reset()
	cur = map[string]map[string]float64{"BenchmarkSomeAlloc": benchA(200, 20)}
	if n := compareBenches(&b, cur, base, "Benchmark", 0.20); n != 1 {
		t.Errorf("regressions = %d, want 1 (single bench)\n%s", n, b.String())
	}
}

// benchS builds a result carrying the reported shard-count metric.
func benchS(ns, shards float64) map[string]float64 {
	return map[string]float64{"ns_per_op": ns, "iterations": 1000, "shards": shards}
}

func benchH(ns, hitRate float64) map[string]float64 {
	return map[string]float64{"ns_per_op": ns, "hit_rate": hitRate}
}

// TestCompareBenchesHitRate: a hit-rate difference against the baseline is
// reported but never gates — a warm ns/op measured against a cold baseline
// (or vice versa) compares cache lookups with real simulation, which is an
// expected state difference, unlike a shard-count mismatch.
func TestCompareBenchesHitRate(t *testing.T) {
	base := map[string]map[string]float64{
		"BenchmarkCacheHit": benchH(100, 1),
		"BenchmarkPlain":    bench(100),
	}

	// Same hit rate: echoed, timing judged normally (and gated).
	var b strings.Builder
	cur := map[string]map[string]float64{"BenchmarkCacheHit": benchH(200, 1)}
	if n := compareBenches(&b, cur, base, "Benchmark", 0.20); n != 1 {
		t.Errorf("regressions = %d, want 1 (same hit rate regressed)\n%s", n, b.String())
	}
	if !strings.Contains(b.String(), "[hit_rate 1]") {
		t.Errorf("report missing hit rate echo:\n%s", b.String())
	}

	// Different hit rate: a 10x slowdown is reported but tolerated — the
	// baseline was warm, this run was cold.
	b.Reset()
	cur = map[string]map[string]float64{"BenchmarkCacheHit": benchH(1000, 0)}
	if n := compareBenches(&b, cur, base, "Benchmark", 0.20); n != 0 {
		t.Errorf("regressions = %d, want 0 (hit-rate difference exempts timing)\n%s", n, b.String())
	}
	if !strings.Contains(b.String(), "HITRATE") || !strings.Contains(b.String(), "hit_rate 1 -> 0") {
		t.Errorf("report missing hit-rate diagnostic:\n%s", b.String())
	}

	// Gaining the metric relative to the baseline is also exempt-but-noted.
	b.Reset()
	cur = map[string]map[string]float64{"BenchmarkPlain": benchH(1000, 0.5)}
	if n := compareBenches(&b, cur, base, "Benchmark", 0.20); n != 0 {
		t.Errorf("regressions = %d, want 0 (metric appeared)\n%s", n, b.String())
	}
}

func TestCompareBenchesShards(t *testing.T) {
	base := map[string]map[string]float64{
		"BenchmarkShardedRound": benchS(100, 4),
		"BenchmarkPlain":        bench(100),
	}

	// Same shard count: the count is echoed and the timing judged normally.
	var b strings.Builder
	cur := map[string]map[string]float64{
		"BenchmarkShardedRound": benchS(110, 4),
		"BenchmarkPlain":        bench(100),
	}
	if n := compareBenches(&b, cur, base, "Benchmark", 0.20); n != 0 {
		t.Errorf("regressions = %d, want 0\n%s", n, b.String())
	}
	if !strings.Contains(b.String(), "[shards 4]") {
		t.Errorf("report missing shard count:\n%s", b.String())
	}

	// A different shard count fails even when the timing "improved": the
	// numbers are not comparable, so a regression could hide behind it.
	b.Reset()
	cur = map[string]map[string]float64{"BenchmarkShardedRound": benchS(40, 8)}
	if n := compareBenches(&b, cur, base, "Benchmark", 0.20); n != 1 {
		t.Errorf("regressions = %d, want 1 (shard mismatch)\n%s", n, b.String())
	}
	if !strings.Contains(b.String(), "SHARDS") || !strings.Contains(b.String(), "shards 4 -> 8") {
		t.Errorf("report missing shard mismatch diagnostic:\n%s", b.String())
	}

	// A run that gained (or lost) the shards metric relative to its baseline
	// is a mismatch too — the baseline must be regenerated deliberately.
	b.Reset()
	cur = map[string]map[string]float64{"BenchmarkPlain": benchS(100, 2)}
	if n := compareBenches(&b, cur, base, "Benchmark", 0.20); n != 1 {
		t.Errorf("regressions = %d, want 1 (metric appeared)\n%s", n, b.String())
	}
}
