package trace_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/trace"
)

// checkChain verifies that path is a well-formed dependent-message chain:
// consecutive events share a PE and their chain values telescope.
func checkChain(t *testing.T, path []trace.Event) {
	t.Helper()
	for i := 1; i < len(path); i++ {
		if path[i].From != path[i-1].To {
			t.Fatalf("path step %d departs from %v but step %d arrived at %v",
				i, path[i].From, i-1, path[i-1].To)
		}
		if path[i].Seq <= path[i-1].Seq {
			t.Fatalf("path step %d seq %d not after step %d seq %d", i, path[i].Seq, i-1, path[i-1].Seq)
		}
	}
	for i, e := range path {
		if e.DepthAfter != e.DepthBefore+1 {
			t.Fatalf("step %d depth %d -> %d not one message", i, e.DepthBefore, e.DepthAfter)
		}
		if e.DistAfter != e.DistBefore+e.Dist {
			t.Fatalf("step %d dist %d -> %d with message dist %d", i, e.DistBefore, e.DistAfter, e.Dist)
		}
	}
}

// checkCriticalPath verifies the two reconstructed chains against the
// machine's metrics: depth path length == Depth, distance path sum ==
// Distance.
func checkCriticalPath(t *testing.T, cp *trace.CriticalPath, mm machine.Metrics) {
	t.Helper()
	dp := cp.DepthPath()
	checkChain(t, dp)
	if int64(len(dp)) != mm.Depth {
		t.Errorf("depth path has %d messages, Depth = %d", len(dp), mm.Depth)
	}
	if n := len(dp); n > 0 {
		if dp[0].DepthBefore != 0 || dp[n-1].DepthAfter != mm.Depth {
			t.Errorf("depth path spans %d..%d, want 0..%d", dp[0].DepthBefore, dp[n-1].DepthAfter, mm.Depth)
		}
	}
	sp := cp.DistancePath()
	checkChain(t, sp)
	var sum int64
	for _, e := range sp {
		sum += e.Dist
	}
	if sum != mm.Distance {
		t.Errorf("distance path sums to %d, Distance = %d", sum, mm.Distance)
	}
	if n := len(sp); n > 0 {
		if sp[0].DistBefore != 0 || sp[n-1].DistAfter != mm.Distance {
			t.Errorf("distance path spans %d..%d, want 0..%d", sp[0].DistBefore, sp[n-1].DistAfter, mm.Distance)
		}
	}
}

func TestCriticalPathRelayChain(t *testing.T) {
	m := machine.New()
	cp := trace.NewCriticalPath()
	m.SetSink(cp)
	m.Set(machine.Coord{Row: 0, Col: 0}, "v", 1.0)
	for i := 0; i < 20; i++ {
		m.Send(machine.Coord{Row: 0, Col: i}, "v", machine.Coord{Row: 0, Col: i + 1}, "v")
	}
	// A short independent detour that must not appear in the chain.
	m.SendValue(machine.Coord{Row: 5, Col: 5}, machine.Coord{Row: 5, Col: 6}, "w", 2.0)
	checkCriticalPath(t, cp, m.Metrics())
	if dp := cp.DepthPath(); len(dp) != 20 {
		t.Fatalf("depth path %d messages, want 20", len(dp))
	}
}

func TestCriticalPathParAndIndependent(t *testing.T) {
	m := machine.New()
	cp := trace.NewCriticalPath()
	m.SetSink(cp)
	for i := 0; i < 8; i++ {
		m.Set(machine.Coord{Row: 0, Col: i}, "v", float64(i))
	}
	// Parallel rounds: tree reduction to column 0.
	for stride := 1; stride < 8; stride *= 2 {
		m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
			for i := 0; i+stride < 8; i += 2 * stride {
				send(machine.Coord{Row: 0, Col: i + stride}, machine.Coord{Row: 0, Col: i}, "w", 1.0)
			}
		})
	}
	// Independent branches relaying through a shared PE must not chain.
	shared := machine.Coord{Row: 3, Col: 3}
	m.Independent(
		func() {
			m.SendValue(machine.Coord{Row: 0, Col: 0}, shared, "a", 1.0)
			m.SendValue(shared, machine.Coord{Row: 6, Col: 6}, "a", 1.0)
		},
		func() {
			m.SendValue(machine.Coord{Row: 0, Col: 7}, shared, "b", 2.0)
			m.SendValue(shared, machine.Coord{Row: 6, Col: 0}, "b", 2.0)
		},
	)
	checkCriticalPath(t, cp, m.Metrics())
}

func TestCriticalPathRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		m := machine.New()
		cp := trace.NewCriticalPath()
		m.SetSink(cp)
		const side = 5
		for r := 0; r < side; r++ {
			for c := 0; c < side; c++ {
				m.Set(machine.Coord{Row: r, Col: c}, "v", 1.0)
			}
		}
		at := func() machine.Coord { return machine.Coord{Row: rng.Intn(side), Col: rng.Intn(side)} }
		for step := 0; step < 40; step++ {
			switch rng.Intn(3) {
			case 0:
				m.SendValue(at(), at(), "v", 1.0)
			case 1:
				m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
					for k := rng.Intn(6); k >= 0; k-- {
						send(at(), at(), "v", 1.0)
					}
				})
			case 2:
				m.Independent(
					func() { m.SendValue(at(), at(), "v", 1.0) },
					func() {
						m.SendValue(at(), at(), "v", 1.0)
						m.SendValue(at(), at(), "v", 1.0)
					},
				)
			}
		}
		checkCriticalPath(t, cp, m.Metrics())
	}
}

func TestHeatmapAgainstMachineAccounting(t *testing.T) {
	m := machine.New()
	h := trace.NewHeatmap()
	m.SetSink(h)
	m.EnableCongestionTracking()
	rng := rand.New(rand.NewSource(3))
	m.Set(machine.Coord{Row: 0, Col: 0}, "v", 1.0)
	var sends int64
	for i := 0; i < 50; i++ {
		from := machine.Coord{Row: rng.Intn(8), Col: rng.Intn(8)}
		to := machine.Coord{Row: rng.Intn(8), Col: rng.Intn(8)}
		if from == to {
			continue
		}
		m.SendValue(from, to, "v", 1.0)
		sends++
	}
	if h.Events() != sends {
		t.Errorf("heatmap saw %d events, want %d", h.Events(), sends)
	}
	mm := m.Metrics()
	var sendSum, recvSum, sendN, recvN, linkSum int64
	_, grid := h.Grid()
	for _, row := range grid {
		for _, cell := range row {
			sendSum += cell.SendTraffic
			recvSum += cell.RecvTraffic
			sendN += cell.Sends
			recvN += cell.Recvs
			for _, l := range cell.Link {
				linkSum += l
			}
		}
	}
	if sendSum != mm.Energy || recvSum != mm.Energy {
		t.Errorf("traffic sums (%d,%d) != energy %d", sendSum, recvSum, mm.Energy)
	}
	if sendN != mm.Messages || recvN != mm.Messages {
		t.Errorf("counts (%d,%d) != messages %d", sendN, recvN, mm.Messages)
	}
	// XY routing: total link traversals equal energy, and the peak matches
	// the machine's own congestion tracker.
	if linkSum != mm.Energy {
		t.Errorf("link traversals %d != energy %d", linkSum, mm.Energy)
	}
	if h.MaxLinkLoad() != m.MaxCongestion() {
		t.Errorf("heatmap max link %d != machine congestion %d", h.MaxLinkLoad(), m.MaxCongestion())
	}
}

// TestHeatmapFabricMatchesBackendCongestion: a heatmap folded onto the
// same fabric as the machine's finite backend reproduces the machine's
// per-link accounting — peak link load and total traversals (== energy).
func TestHeatmapFabricMatchesBackendCongestion(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		torus bool
	}{
		{"mesh:6x6:2", false},
		{"torus:6x6:2", true},
	} {
		b, err := machine.ParseBackend(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		m := machine.New()
		m.SetBackend(b)
		m.EnableCongestionTracking()
		h := trace.NewHeatmap()
		h.SetFabric(b.W, b.H, b.Block, tc.torus)
		m.SetSink(h)
		m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
			for i := 0; i < 12; i++ {
				send(machine.Coord{Row: i, Col: 0}, machine.Coord{Row: (i * 5) % 12, Col: 11 - i}, "v", i)
			}
		})
		mm := m.Metrics()
		if h.MaxLinkLoad() != m.MaxCongestion() {
			t.Errorf("%s: heatmap max link %d != machine congestion %d", tc.spec, h.MaxLinkLoad(), m.MaxCongestion())
		}
		var linkSum int64
		origin, grid := h.Grid()
		for _, row := range grid {
			for _, cell := range row {
				for _, l := range cell.Link {
					linkSum += l
				}
			}
		}
		if linkSum != mm.Energy {
			t.Errorf("%s: link traversals %d != energy %d", tc.spec, linkSum, mm.Energy)
		}
		// All cells live on the physical fabric.
		if origin.Row < 0 || origin.Col < 0 {
			t.Errorf("%s: heatmap origin %v outside the fabric", tc.spec, origin)
		}
		if len(grid) > b.H || (len(grid) > 0 && len(grid[0]) > b.W) {
			t.Errorf("%s: heatmap %dx%d exceeds fabric %dx%d", tc.spec, len(grid), len(grid[0]), b.H, b.W)
		}
	}
}

// TestHeatmapSetFabricOverflowPanics: a fold block large enough to wrap
// size*block in the fold must be refused up front (programmer-error panic)
// instead of dividing by zero on the first event.
func TestHeatmapSetFabricOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetFabric with overflowing fold block did not panic")
		}
	}()
	trace.NewHeatmap().SetFabric(4, 4, 4611686018427387904, false)
}

func TestHeatmapCSV(t *testing.T) {
	h := trace.NewHeatmap()
	e := trace.Event{From: trace.Coord{Row: 0, Col: 0}, To: trace.Coord{Row: 0, Col: 2}, Dist: 2}
	h.Event(&e)
	var buf bytes.Buffer
	if err := h.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + (0,0) + (0,1) + (0,2)
		t.Fatalf("CSV = %q, want header + 3 cells", buf.String())
	}
	if lines[1] != "0,0,1,0,2,0,1,0,0,0" {
		t.Errorf("sender cell line = %q", lines[1])
	}
	if lines[2] != "0,1,0,0,0,0,1,0,0,0" {
		t.Errorf("relay cell line = %q", lines[2])
	}
	if lines[3] != "0,2,0,1,0,2,0,0,0,0" {
		t.Errorf("receiver cell line = %q", lines[3])
	}
}

func TestCountersPhases(t *testing.T) {
	m := machine.New()
	c := trace.NewCounters()
	m.SetSink(c)
	m.Set(machine.Coord{Row: 0, Col: 0}, "v", 1.0)
	m.Phase("up")
	m.Send(machine.Coord{Row: 0, Col: 0}, "v", machine.Coord{Row: 0, Col: 1}, "v")
	m.Send(machine.Coord{Row: 0, Col: 1}, "v", machine.Coord{Row: 0, Col: 3}, "v")
	m.Phase("down")
	m.Send(machine.Coord{Row: 0, Col: 3}, "v", machine.Coord{Row: 0, Col: 7}, "v")
	phases := c.Phases()
	if len(phases) != 2 || phases[0].Phase != "up" || phases[1].Phase != "down" {
		t.Fatalf("phases = %+v", phases)
	}
	up, down := phases[0], phases[1]
	if up.Messages != 2 || up.Energy != 3 || up.MaxDepth != 2 {
		t.Errorf("up = %+v", up)
	}
	if down.Messages != 1 || down.Energy != 4 || down.MaxDepth != 3 || down.MaxDistance != 7 {
		t.Errorf("down = %+v", down)
	}
	if up.FirstSeq != 1 || up.LastSeq != 2 || down.FirstSeq != 3 {
		t.Errorf("seq spans: up %d..%d down %d..%d", up.FirstSeq, up.LastSeq, down.FirstSeq, down.LastSeq)
	}
	mm := m.Metrics()
	total := c.Total()
	if total.Messages != mm.Messages || total.Energy != mm.Energy ||
		total.MaxDepth != mm.Depth || total.MaxDistance != mm.Distance {
		t.Errorf("total %+v disagrees with metrics %v", total, mm)
	}
	// Histogram: distances 1, 2, 4 land in buckets 0, 1, 2.
	var histSum int64
	for _, n := range total.DistHist {
		histSum += n
	}
	if histSum != total.Messages {
		t.Errorf("histogram sums to %d, want %d", histSum, total.Messages)
	}
	if total.DistHist[0] != 1 || total.DistHist[1] != 1 || total.DistHist[2] != 1 {
		t.Errorf("histogram = %v", total.DistHist[:4])
	}
}

// chromeDoc mirrors the trace_event JSON object format.
type chromeDoc struct {
	TraceEvents []map[string]any `json:"traceEvents"`
}

func TestChromeSinkValidJSON(t *testing.T) {
	m := machine.New()
	var buf bytes.Buffer
	cs := trace.NewChromeSink(&buf)
	m.SetSink(cs)
	m.Set(machine.Coord{Row: 0, Col: 0}, "v", 1.0)
	m.Phase("spmv/sort")
	m.Send(machine.Coord{Row: 0, Col: 0}, "v", machine.Coord{Row: 1, Col: 1}, "v")
	m.Phase("spmv/scan")
	m.Send(machine.Coord{Row: 1, Col: 1}, "v", machine.Coord{Row: 2, Col: 0}, "v")
	m.Phase("")
	m.Send(machine.Coord{Row: 2, Col: 0}, "v", machine.Coord{Row: 0, Col: 0}, "w")
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}

	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	var sends int
	depth := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if _, ok := ev["name"].(string); !ok {
			t.Fatalf("event without name: %v", ev)
		}
		switch ph {
		case "X":
			sends++
			if ev["dur"] == nil || ev["ts"] == nil {
				t.Fatalf("X event missing ts/dur: %v", ev)
			}
		case "B":
			depth["scope"]++
		case "E":
			depth["scope"]--
			if depth["scope"] < 0 {
				t.Fatal("scope end without begin")
			}
		case "M", "C":
		default:
			t.Fatalf("unexpected ph %q", ph)
		}
	}
	if sends != 3 {
		t.Errorf("trace holds %d X events, want 3", sends)
	}
	if depth["scope"] != 0 {
		t.Errorf("unbalanced phase scopes: %d left open", depth["scope"])
	}
}

func TestChromeSinkEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	cs := trace.NewChromeSink(&buf)
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v\n%s", err, buf.String())
	}
}

type errSink struct{ err error }

func (s errSink) Event(*trace.Event) {}
func (s errSink) Close() error       { return s.err }

func TestMultiSynchronizedWalk(t *testing.T) {
	var a, b int
	sa := trace.SinkFunc(func(*trace.Event) { a++ })
	sb := trace.SinkFunc(func(*trace.Event) { b++ })
	cp := trace.NewCriticalPath()
	boom := errors.New("boom")
	s := trace.Multi(trace.Synchronized(sa), nil, trace.Multi(sb, cp), errSink{boom})
	e := trace.Event{Seq: 1, From: trace.Coord{Row: 0, Col: 0}, To: trace.Coord{Row: 0, Col: 1}, Dist: 1, DepthAfter: 1, DistAfter: 1}
	s.Event(&e)
	if a != 1 || b != 1 || len(cp.DepthPath()) != 1 {
		t.Errorf("fan-out reached (%d,%d,%d) sinks", a, b, len(cp.DepthPath()))
	}
	if err := s.Close(); err != boom {
		t.Errorf("Close = %v, want boom", err)
	}
	var found *trace.CriticalPath
	trace.Walk(s, func(inner trace.Sink) {
		if c, ok := inner.(*trace.CriticalPath); ok {
			found = c
		}
	})
	if found != cp {
		t.Error("Walk did not find the nested CriticalPath")
	}
	if trace.Multi() != nil || trace.Multi(nil) != nil || trace.Synchronized(nil) != nil {
		t.Error("empty combinators should collapse to nil")
	}
	if one := trace.Multi(cp); one != trace.Sink(cp) {
		t.Error("Multi of one sink should return it unwrapped")
	}
}
