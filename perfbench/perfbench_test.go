package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond := percentile(xs, 0.99); v != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if _, beyond := percentile(xs[:999], 0.99); beyond >= minBeyond {
		t.Fatalf("p99 of 999 samples has %d beyond; the rule needs 1000 samples for 10", beyond)
	}
	if v, beyond := percentile(xs[:21], 0.5); v != 11 || beyond != minBeyond {
		t.Fatalf("median of 1..21 = %v with %d beyond, want 11 with %d", v, beyond, minBeyond)
	}
	// A failed operation is +Inf and must land beyond any finite limit.
	withFail := append(append([]float64(nil), xs...), math.Inf(1))
	if v, _ := percentile(withFail, 0.99); math.IsInf(v, 1) {
		t.Fatalf("one failure out of 1001 moved p99 to +Inf")
	}
	if v, _ := percentile(withFail, 1); !math.IsInf(v, 1) {
		t.Fatalf("the maximum of a run with a failure is %v, want +Inf", v)
	}
	if v, _ := percentile(nil, 0.5); !math.IsNaN(v) {
		t.Fatalf("percentile of nothing = %v, want NaN", v)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		med        float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 5.5, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 3, 1.5, 3, 4.5},
		{[]float64{3.5, 1.25, 9}, 3.5, 1.25, 3.5, 9},
		{[]float64{2, 1}, 1.5, 0.75, 1.5, 2.25},
	}
	for _, c := range cases {
		if m := median(c.xs); m != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.med)
		}
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func sp(id, parent int, start, end int64) span {
	return span{ID: id, Parent: parent, StartNS: start, EndNS: end}
}

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  []int64
	}{
		{"nested", []span{
			sp(1, 0, 0, 100), sp(2, 1, 10, 40), sp(3, 1, 50, 70), sp(4, 2, 15, 20),
		}, []int64{50, 25, 20, 5}},
		{"overlapping children count once", []span{
			sp(1, 0, 0, 100), sp(2, 1, 10, 40), sp(3, 1, 30, 60),
		}, []int64{50, 30, 30}},
		{"child outside its parent is clipped", []span{
			sp(1, 0, 10, 50), sp(2, 1, 0, 20), sp(3, 1, 45, 80),
		}, []int64{25, 20, 35}},
		{"identical children", []span{
			sp(1, 0, 0, 10), sp(2, 1, 2, 4), sp(3, 1, 2, 4),
		}, []int64{8, 2, 2}},
	}
	for _, c := range cases {
		got := selfTimes(c.spans)
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: self times %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
	// Without overlapping siblings the self times add up to the roots.
	spans := []span{sp(1, 0, 0, 100), sp(2, 1, 10, 40), sp(3, 1, 50, 70), sp(4, 2, 15, 20), sp(5, 0, 100, 130)}
	selfSum, rootSum := sums(spans, selfTimes(spans))
	if selfSum != rootSum || rootSum != 130e-9 {
		t.Errorf("self times sum to %v s, roots to %v s; want both 130 ns", selfSum, rootSum)
	}
}

func TestRecorderNilIsUntraced(t *testing.T) {
	var r *recorder
	if id := r.begin(0, "x", "bench", ""); id != 0 {
		t.Fatalf("nil recorder returned span %d", id)
	}
	r.end(0, 1, 1)
	if r.snapshot() != nil {
		t.Fatal("nil recorder recorded spans")
	}
	r = newRecorder()
	root := r.begin(0, "root", "bench", "j")
	child := r.begin(root, "child", "machine", "j")
	r.end(child, 7, 3)
	r.end(root, 0, 0)
	s := r.snapshot()
	if len(s) != 2 || s[1].Parent != root || s[1].Msgs != 7 || s[1].CacheHits != 3 || s[1].EndNS < s[1].StartNS {
		t.Fatalf("recorded spans %+v", s)
	}
}

func TestCompareDocsFindsTheChangedVerdict(t *testing.T) {
	if p := compareDocs(goldenConformance, goldenConformance, nil); len(p) != 0 {
		t.Fatalf("golden against itself: %v", p)
	}
	changed := bytes.Replace(goldenConformance, []byte(`"pass": true`), []byte(`"pass": false`), 1)
	p := compareDocs(changed, goldenConformance, nil)
	if _, ok := p[0]; len(p) != 1 || !ok {
		t.Fatalf("one changed verdict gave problems %v, want one at index 0", p)
	}
	header := bytes.Replace(goldenConformance, []byte(`"claims": 61`), []byte(`"claims": 62`), 1)
	if p := compareDocs(header, goldenConformance, nil); p[-1] == "" {
		t.Fatalf("a changed header gave problems %v", p)
	}
}

func TestCheckJob(t *testing.T) {
	prime := []byte(`{"verdicts":[]}`)
	rows := []byte(`[[1024,1.5]]`)
	if msg := checkJob(jobResult{body: prime}, false, prime, rows); msg != "" {
		t.Errorf("good warm job: %s", msg)
	}
	if msg := checkJob(jobResult{body: []byte(`{}`)}, false, prime, rows); msg == "" {
		t.Error("a warm result unlike the priming document passed")
	}
	if msg := checkJob(jobResult{body: []byte(`{"name":"x","rows":[[1024,1.5]]}`)}, true, prime, rows); msg != "" {
		t.Errorf("good cold job: %s", msg)
	}
	if msg := checkJob(jobResult{body: []byte(`{"rows":[[1024,2]]}`)}, true, prime, rows); msg == "" {
		t.Error("cold rows unlike the reference passed")
	}
}

func TestColdSchedule(t *testing.T) {
	const n = 7500
	a := coldSchedule(1, 0, n)
	if b := coldSchedule(1, 0, n); !slices.Equal(a, b) {
		t.Fatal("the same seed and client gave two schedules")
	}
	for _, other := range [][]bool{coldSchedule(2, 0, n), coldSchedule(1, 1, n)} {
		if slices.Equal(a, other) {
			t.Fatal("another seed or client gave the same schedule")
		}
	}
	for b := 0; b < n; b += dmColdEvery {
		c := 0
		for _, cold := range a[b : b+dmColdEvery] {
			if cold {
				c++
			}
		}
		if c != 1 {
			t.Fatalf("block at job %d has %d cold jobs, want 1", b, c)
		}
	}
	for _, seed := range []int64{0, 1, 1 << 39} {
		seen := make(map[int64]bool)
		for ci := 0; ci < dmClients; ci++ {
			for j := 0; j < n; j++ {
				s := coldSeed(seed, ci, j)
				if s == confSeed || seen[s] {
					t.Fatalf("cold seed %d (workload seed %d, client %d, job %d) is the priming seed or repeats", s, seed, ci, j)
				}
				seen[s] = true
			}
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric names and units the
// program prints in step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-seconds", "0"},
		{"-trace", "2"},
		{"-seed", "-1"},
		{"-bogus"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

// The tests below run real workloads (about a minute in all).

// TestTracedWorkloadsAddUp runs every workload traced and checks that the
// self times sum to the traced wall time of each lane, and that nothing
// failed.
func TestTracedWorkloadsAddUp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		p := params{seed: defaultSeed, seconds: 1, rec: newRecorder()}
		o := w.run(p)
		spans := p.rec.snapshot()
		selfSum, rootSum := sums(spans, selfTimes(spans))
		want := float64(o.Lanes) * o.WallS
		if math.Abs(selfSum-rootSum) > 1e-6 || math.Abs(rootSum-want) > selfTolerance*want {
			t.Errorf("%s: self times %.6f s, root spans %.6f s, lanes x wall_s %.6f s", w.name, selfSum, rootSum, want)
		}
		if o.Failed != 0 || o.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, o.Failed, o.Attempted)
		}
	}
}

// TestChangedGoldenFails changes one golden cost and expects the large-n
// workload to report failed operations.
func TestChangedGoldenFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the large-n workload")
	}
	saved := goldenLargeNJSON
	defer func() { goldenLargeNJSON = saved }()
	goldenLargeNJSON = []byte(strings.Replace(string(saved), `"messages": 44826624`, `"messages": 44826625`, 1))
	if bytes.Equal(goldenLargeNJSON, saved) {
		t.Fatal("the golden value to change was not found")
	}
	o := runLargeN(params{seed: 2, seconds: 1})
	if o.Failed == 0 || float64(o.Failed)/float64(o.Attempted) <= 0 {
		t.Fatalf("fail_frac = %d/%d after changing a golden cost, want > 0", o.Failed, o.Attempted)
	}
}
