package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/internal/collectives"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/order"
	"repro/internal/sortnet"
)

// The large-n workload calls L1 primitives directly on one machine at the
// nightly run's largest sizes: four separate L0/L1 mechanisms (counting-
// only sorting networks, the folded backend, the value-path Z-order scan
// and the sharded rounds of the row-major scan), with no L2–L4 code.
const (
	lnShards = 2
	// lnSetups is how many times set-up (input generation and the first
	// placement on a fresh machine) is timed, setupGap apart; its median
	// is setup_s.
	lnSetups = 21
	// lnPassSeconds is the expected length of one pass of the five calls
	// on a 2-CPU host; -seconds / lnPassSeconds (at least one) passes run.
	lnPassSeconds = 16.0
	lnReg         = "v"
)

// lnCall is one large-n call.
type lnCall struct {
	name    string
	span    string // the public function called, as the span is named
	n       int
	backend string // machine backend spec
	scan    bool   // output is a prefix sum, not a sorted array
	zorder  bool   // input placed in Z-order instead of row-major
	metric  string // per-layer ns-per-message metric
}

var largeNCalls = []lnCall{
	{name: "shearsort", span: "sortnet.Shearsort", n: 1 << 16, backend: "ideal",
		metric: "sortnet.shearsort_ns_per_msg"},
	{name: "bitonic", span: "sortnet.Sort", n: 1 << 18, backend: "ideal",
		metric: "sortnet.bitonic_ns_per_msg"},
	{name: "bitonic-fold", span: "sortnet.Sort mesh:8x8:64", n: 1 << 18, backend: "mesh:8x8:64",
		metric: "sortnet.bitonic_fold_ns_per_msg"},
	{name: "scan", span: "collectives.Scan", n: 1 << 20, backend: "ideal", scan: true, zorder: true,
		metric: "collectives.scan_ns_per_msg"},
	{name: "scantrack", span: "collectives.ScanTrack", n: 1 << 20, backend: "ideal", scan: true,
		metric: "collectives.scantrack_ns_per_msg"},
}

func (c lnCall) rect() grid.Rect { return grid.SquareFor(machine.Coord{}, c.n) }

func (c lnCall) track() grid.Track {
	if c.zorder {
		return grid.ZOrder(c.rect())
	}
	return grid.RowMajor(c.rect())
}

func (c lnCall) run(m *machine.Machine) {
	r := c.rect()
	switch c.name {
	case "shearsort":
		sortnet.Shearsort(m, r, lnReg, order.Float64)
	case "bitonic", "bitonic-fold":
		sortnet.Sort(m, grid.RowMajor(r), lnReg, c.n, order.Float64)
	case "scan":
		collectives.Scan(m, r, lnReg, collectives.Add, 0.0)
	case "scantrack":
		collectives.ScanTrack(m, grid.RowMajor(r), lnReg, collectives.Add, 0.0)
	}
}

// lnInputs generates a call's input from the workload seed: integers
// below 2^20 stored as float64, so every prefix sum of 2^20 of them is
// exact and the scans can be checked bit for bit.
func lnInputs(seed int64, c lnCall) []float64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(c.name))
	rng := rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
	vals := make([]float64, c.n)
	for i := range vals {
		vals[i] = float64(rng.Intn(1 << 20))
	}
	return vals
}

// lnCost is the part of a call's machine.Metrics the golden file pins.
type lnCost struct {
	Energy     int64 `json:"energy"`
	Depth      int64 `json:"depth"`
	Distance   int64 `json:"distance"`
	Messages   int64 `json:"messages"`
	TouchedPEs int   `json:"touched_pes"`
}

// goldenLargeN parses the golden costs; sorting-network and scan costs do
// not depend on the data, so they hold at every seed.
func goldenLargeN() (map[string]lnCost, error) {
	var g map[string]lnCost
	err := json.Unmarshal(goldenLargeNJSON, &g)
	return g, err
}

func place(m *machine.Machine, t grid.Track, vals []float64) {
	for i, v := range vals {
		m.Set(t.At(i), lnReg, v)
	}
}

func newLargeNMachine() *machine.Machine {
	m := machine.New()
	m.SetBatchSends(true)
	m.SetShards(lnShards)
	return m
}

func runLargeN(p params) *outcome {
	o := newOutcome("large-n", p)
	passes := max(1, int(math.Round(float64(p.seconds)/lnPassSeconds)))
	o.config("shards", lnShards)
	o.config("batch", true)
	o.config("passes", passes)
	for _, c := range largeNCalls {
		o.config(c.name, fmt.Sprintf("n=%d@%s", c.n, c.backend))
	}
	golden, err := goldenLargeN()
	if err != nil {
		o.op("golden costs", "cannot parse: "+err.Error())
		return o
	}
	backends := make([]machine.Backend, len(largeNCalls))
	for i, c := range largeNCalls {
		if backends[i], err = machine.ParseBackend(c.backend); err != nil {
			o.op("backend "+c.backend, err.Error())
			return o
		}
	}

	// Set-up: generate every input and make the first placement on a
	// fresh machine.
	var m *machine.Machine
	var inputs [][]float64
	for i := 0; i < lnSetups; i++ {
		m, inputs = nil, nil
		betweenSetups()
		t0 := time.Now()
		for _, c := range largeNCalls {
			inputs = append(inputs, lnInputs(p.seed, c))
		}
		m = newLargeNMachine()
		m.SetBackend(backends[0])
		place(m, largeNCalls[0].track(), inputs[0])
		o.SetupS = append(o.SetupS, time.Since(t0).Seconds())
	}
	startTimed()

	var (
		wall    time.Duration
		msgs    = make([]int64, len(largeNCalls))
		touched int64
		allMsgs int64
	)
	rt := readRuntime()
	for pass := 0; pass < passes; pass++ {
		job := fmt.Sprintf("pass%d", pass)
		for i, c := range largeNCalls {
			var met machine.Metrics
			var pes int
			t0 := time.Now()
			root := p.rec.begin(0, "large-n "+c.name, "bench", job)
			if pass > 0 || i > 0 {
				id := p.rec.begin(root, "machine.Reset", "machine", job)
				m.Reset()
				m.SetBackend(backends[i])
				p.rec.end(id, 0, 0)
				id = p.rec.begin(root, "machine.place", "machine", job)
				place(m, c.track(), inputs[i])
				p.rec.end(id, 0, 0)
			}
			id := p.rec.begin(root, c.span, layerOf(c.metric), job)
			err := protect(func() { c.run(m) })
			met, pes = m.Metrics(), m.TouchedPEs()
			p.rec.end(id, met.Messages, 0)
			p.rec.end(root, 0, 0)
			wall += time.Since(t0)

			msgs[i] += met.Messages
			allMsgs += met.Messages
			touched += int64(pes)
			o.op(fmt.Sprintf("%s n=%d pass %d", c.name, c.n, pass), checkLargeN(m, c, inputs[i], err, met, pes, golden[c.name])...)
		}
	}
	rt.since(o)
	o.WallS = wall.Seconds()
	o.e2e("sim_msgs_per_s", float64(allMsgs)/o.WallS, "1/s", fmt.Sprintf("%d simulated messages", allMsgs))
	o.Layer["machine.msgs"] = float64(allMsgs)
	o.Layer["machine.touched_pes"] = float64(touched)
	if p.rec != nil {
		spans := p.rec.snapshot()
		self := selfTimes(spans)
		callNS := make(map[string]float64)
		var scanObjects float64
		for i, s := range spans {
			switch s.Name {
			case "machine.Reset":
				o.Layer["machine.reset_s"] += float64(self[i]) / 1e9
			case "machine.place":
				o.Layer["machine.place_s"] += float64(self[i]) / 1e9
			case "collectives.Scan":
				scanObjects += float64(s.Objects)
			}
			callNS[s.Name] += float64(self[i])
		}
		for i, c := range largeNCalls {
			o.Layer[c.metric] = callNS[c.span] / float64(msgs[i])
			if c.name == "scan" {
				o.Layer["collectives.scan_allocs_per_msg"] = scanObjects / float64(msgs[i])
			}
		}
		o.Layer["machine.fold_overhead"] = o.Layer["sortnet.bitonic_fold_ns_per_msg"] / o.Layer["sortnet.bitonic_ns_per_msg"]
	}
	return o
}

// checkLargeN verifies one call: no panic, the output sorted (or equal to
// the host prefix sum), and the costs equal to the golden ones. It also
// prints the costs, which is how the golden file is refreshed.
func checkLargeN(m *machine.Machine, c lnCall, in []float64, runErr error, met machine.Metrics, pes int, want lnCost) []string {
	if runErr != nil {
		return []string{runErr.Error()}
	}
	var problems []string
	got := lnCost{met.Energy, met.Depth, met.Distance, met.Messages, pes}
	if line, err := json.Marshal(got); err == nil {
		fmt.Fprintf(os.Stderr, "perfbench: large-n: costs %q: %s\n", c.name, line)
	}
	if got != want {
		problems = append(problems, fmt.Sprintf("costs %+v differ from golden %+v", got, want))
	}
	t := c.track()
	out := make([]float64, c.n)
	for i := range out {
		v, ok := m.Lookup(t.At(i), lnReg)
		f, isFloat := v.(float64)
		if !ok || !isFloat {
			return append(problems, fmt.Sprintf("output %d missing or not a float64", i))
		}
		out[i] = f
	}
	var ref []float64
	if c.scan {
		ref = make([]float64, c.n)
		var sum float64
		for i, v := range in {
			sum += v
			ref[i] = sum
		}
	} else {
		ref = sortedCopy(in)
	}
	for i := range out {
		if out[i] != ref[i] {
			what := "sorted input"
			if c.scan {
				what = "host prefix sum"
			}
			problems = append(problems, fmt.Sprintf("output[%d] = %v, %s has %v", i, out[i], what, ref[i]))
			break
		}
	}
	if !c.scan && !sort.Float64sAreSorted(out) {
		problems = append(problems, "output is not sorted")
	}
	return problems
}
