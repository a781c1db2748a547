package machine

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func TestDist(t *testing.T) {
	cases := []struct {
		a, b Coord
		want int64
	}{
		{Coord{0, 0}, Coord{0, 0}, 0},
		{Coord{0, 0}, Coord{3, 4}, 7},
		{Coord{-2, 5}, Coord{1, 1}, 7},
		{Coord{10, 10}, Coord{10, 11}, 1},
	}
	for _, c := range cases {
		if got := Dist(c.a, c.b); got != c.want {
			t.Errorf("Dist(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Dist(c.b, c.a); got != c.want {
			t.Errorf("Dist not symmetric for %v,%v", c.a, c.b)
		}
	}
}

func TestAbsInt64Extremes(t *testing.T) {
	// Regression: the old implementation negated before widening, so
	// absInt64(math.MinInt) overflowed to a negative distance.
	cases := []struct {
		in   int
		want int64
	}{
		{0, 0},
		{-1, 1},
		{math.MaxInt, int64(math.MaxInt)},
		{math.MinInt + 1, int64(math.MaxInt)},
		{math.MinInt, math.MaxInt64}, // saturated: |MinInt64| is unrepresentable
	}
	for _, c := range cases {
		got := absInt64(c.in)
		if got != c.want {
			t.Errorf("absInt64(%d) = %d, want %d", c.in, got, c.want)
		}
		if got < 0 {
			t.Errorf("absInt64(%d) = %d is negative", c.in, got)
		}
	}
}

func TestDistQuickTriangle(t *testing.T) {
	f := func(ar, ac, br, bc, cr, cc int16) bool {
		a := Coord{int(ar), int(ac)}
		b := Coord{int(br), int(bc)}
		c := Coord{int(cr), int(cc)}
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSendAccountsEnergy(t *testing.T) {
	m := New()
	m.Set(Coord{0, 0}, "v", 42)
	m.Send(Coord{0, 0}, "v", Coord{3, 4}, "v")
	got := m.Metrics()
	if got.Energy != 7 || got.Messages != 1 || got.Depth != 1 || got.Distance != 7 {
		t.Errorf("metrics after one send: %v", got)
	}
	if v := m.Get(Coord{3, 4}, "v"); v != 42 {
		t.Errorf("delivered value %v", v)
	}
}

func TestSelfSendIsFree(t *testing.T) {
	m := New()
	m.Set(Coord{1, 1}, "a", 5)
	m.Send(Coord{1, 1}, "a", Coord{1, 1}, "b")
	got := m.Metrics()
	if got.Energy != 0 || got.Messages != 0 || got.Depth != 0 {
		t.Errorf("self send should be free, got %v", got)
	}
	if v := m.Get(Coord{1, 1}, "b"); v != 5 {
		t.Errorf("self send lost value: %v", v)
	}
}

func TestChainDepthAndDistance(t *testing.T) {
	// A relay chain p0 -> p1 -> p2 -> p3 along a row has depth 3 and
	// distance = total path length.
	m := New()
	m.Set(Coord{0, 0}, "v", 1.0)
	m.Send(Coord{0, 0}, "v", Coord{0, 2}, "v")
	m.Send(Coord{0, 2}, "v", Coord{0, 5}, "v")
	m.Send(Coord{0, 5}, "v", Coord{0, 6}, "v")
	got := m.Metrics()
	if got.Depth != 3 {
		t.Errorf("chain depth = %d, want 3", got.Depth)
	}
	if got.Distance != 6 {
		t.Errorf("chain distance = %d, want 6", got.Distance)
	}
	if got.Energy != 6 {
		t.Errorf("chain energy = %d, want 6", got.Energy)
	}
}

func TestIndependentSendsDoNotChain(t *testing.T) {
	// A PE that emits k messages without receiving in between produces k
	// independent chains of depth 1 (the model's dependent-chain
	// definition; see DESIGN.md).
	m := New()
	root := Coord{0, 0}
	m.Set(root, "v", 7)
	for i := 1; i <= 10; i++ {
		m.Send(root, "v", Coord{0, i}, "v")
	}
	got := m.Metrics()
	if got.Depth != 1 {
		t.Errorf("independent sends depth = %d, want 1", got.Depth)
	}
	if got.Distance != 10 {
		t.Errorf("distance = %d, want 10 (longest single message)", got.Distance)
	}
	if got.Energy != 55 {
		t.Errorf("energy = %d, want 55", got.Energy)
	}
}

func TestBinaryTreeDepthIsLogarithmic(t *testing.T) {
	// A binary fan-out over 2^k leaves must measure depth exactly k.
	m := New()
	m.Set(Coord{0, 0}, "v", 1)
	// Doubling broadcast along a row: at step s, PEs 0..2^s-1 each send to
	// their partner at offset 2^s.
	n := 64
	for s := 1; s < n; s *= 2 {
		for i := 0; i < s; i++ {
			m.Send(Coord{0, i}, "v", Coord{0, i + s}, "v")
		}
	}
	got := m.Metrics()
	if got.Depth != 6 {
		t.Errorf("doubling broadcast depth = %d, want 6", got.Depth)
	}
}

func TestReceiveThenSendChains(t *testing.T) {
	// After receiving, a PE's subsequent sends extend the chain.
	m := New()
	m.Set(Coord{0, 0}, "v", 1)
	m.Send(Coord{0, 0}, "v", Coord{0, 1}, "v")
	m.Send(Coord{0, 1}, "v", Coord{0, 2}, "a")
	m.Send(Coord{0, 1}, "v", Coord{0, 3}, "b")
	got := m.Metrics()
	if got.Depth != 2 {
		t.Errorf("depth = %d, want 2", got.Depth)
	}
	if got.Distance != 3 { // 1 + 2 via the send to (0,3)
		t.Errorf("distance = %d, want 3", got.Distance)
	}
}

func TestGetEmptyPanics(t *testing.T) {
	m := New()
	defer func() {
		if recover() == nil {
			t.Error("Get on empty register did not panic")
		}
	}()
	m.Get(Coord{5, 5}, "nope")
}

func TestMemoryAccounting(t *testing.T) {
	m := New()
	c := Coord{0, 0}
	m.Set(c, "a", 1)
	m.Set(c, "b", 2)
	m.Set(c, "c", 3)
	if got := m.Metrics().PeakMemory; got != 3 {
		t.Errorf("peak memory = %d, want 3", got)
	}
	m.Del(c, "a")
	m.Del(c, "b")
	m.Set(c, "d", 4)
	if got := m.Metrics().PeakMemory; got != 3 {
		t.Errorf("peak memory after frees = %d, want still 3", got)
	}
}

func TestMemoryLimitEnforced(t *testing.T) {
	m := NewWithMemoryLimit(2)
	c := Coord{0, 0}
	m.Set(c, "a", 1)
	m.Set(c, "b", 2)
	defer func() {
		if recover() == nil {
			t.Error("memory limit violation did not panic")
		}
	}()
	m.Set(c, "c", 3)
}

func TestResetClocks(t *testing.T) {
	m := New()
	m.Set(Coord{0, 0}, "v", 1)
	m.Send(Coord{0, 0}, "v", Coord{0, 9}, "v")
	m.ResetClocks()
	if got := m.Metrics(); got.Depth != 0 || got.Distance != 0 {
		t.Errorf("after reset: %v", got)
	}
	if got := m.Metrics(); got.Energy != 9 {
		t.Errorf("reset must keep energy, got %v", got)
	}
	m.Send(Coord{0, 9}, "v", Coord{0, 10}, "v")
	if got := m.Metrics(); got.Depth != 1 || got.Distance != 1 {
		t.Errorf("post-reset chain: %v", got)
	}
}

func TestMetricsSub(t *testing.T) {
	m := New()
	m.Set(Coord{0, 0}, "v", 1)
	m.Send(Coord{0, 0}, "v", Coord{0, 3}, "v")
	before := m.Metrics()
	m.Send(Coord{0, 3}, "v", Coord{0, 5}, "v")
	diff := m.Metrics().Sub(before)
	if diff.Energy != 2 || diff.Messages != 1 {
		t.Errorf("Sub = %v", diff)
	}
}

func TestSinkSeesMessages(t *testing.T) {
	m := New()
	var events []trace.Event
	m.SetSink(trace.SinkFunc(func(e *trace.Event) { events = append(events, *e) }))
	m.Set(Coord{0, 0}, "v", 1)
	m.Send(Coord{0, 0}, "v", Coord{1, 1}, "v")
	m.Send(Coord{1, 1}, "v", Coord{2, 2}, "v")
	m.Send(Coord{2, 2}, "v", Coord{2, 2}, "v") // self-send: free, not traced
	if len(events) != 2 {
		t.Fatalf("sink saw %d messages, want 2", len(events))
	}
	first, second := events[0], events[1]
	want := trace.Event{Seq: 1, From: trace.Coord{Row: 0, Col: 0}, To: trace.Coord{Row: 1, Col: 1}, Dist: 2,
		Value: 1, DepthBefore: 0, DepthAfter: 1, DistBefore: 0, DistAfter: 2, EnergyCum: 2}
	if first != want {
		t.Errorf("first event = %+v, want %+v", first, want)
	}
	want = trace.Event{Seq: 2, From: trace.Coord{Row: 1, Col: 1}, To: trace.Coord{Row: 2, Col: 2}, Dist: 2,
		Value: 1, DepthBefore: 1, DepthAfter: 2, DistBefore: 2, DistAfter: 4, EnergyCum: 4}
	if second != want {
		t.Errorf("second event = %+v, want %+v", second, want)
	}
	mm := m.Metrics()
	if second.DepthAfter != mm.Depth || second.DistAfter != mm.Distance || second.EnergyCum != mm.Energy {
		t.Errorf("final event chain (%d,%d,%d) disagrees with metrics %v",
			second.DepthAfter, second.DistAfter, second.EnergyCum, mm)
	}
}

// TestTracedSendAllocatesNothing: every traced message is written into the
// machine's one event, so streaming sends to a sink allocates nothing.
func TestTracedSendAllocatesNothing(t *testing.T) {
	m := New()
	var energy int64
	m.SetSink(trace.SinkFunc(func(e *trace.Event) { energy += e.Dist }))
	var v Value = 1.0
	from, to := Coord{0, 0}, Coord{0, 3}
	m.SendValue(from, to, "v", v) // the first delivery grows the register file
	if a := testing.AllocsPerRun(100, func() { m.SendValue(from, to, "v", v) }); a != 0 {
		t.Errorf("traced SendValue allocates %v times per call, want 0", a)
	}
	if mm := m.Metrics(); energy != mm.Energy {
		t.Errorf("sink saw energy %d, metrics report %d", energy, mm.Energy)
	}
}

func TestSinkParSnapshotDepths(t *testing.T) {
	m := New()
	var events []trace.Event
	m.SetSink(trace.SinkFunc(func(e *trace.Event) { events = append(events, *e) }))
	m.Set(Coord{0, 0}, "v", 1.0)
	m.SendValue(Coord{0, 0}, Coord{0, 1}, "v", 1.0)
	// Within one round, the relay out of (0,1) uses the start-of-round
	// clock: the incoming message of the same round must not extend it.
	m.Par(func(send func(from, to Coord, dstReg Reg, v Value)) {
		send(Coord{0, 0}, Coord{0, 1}, "w", 2.0)
		send(Coord{0, 1}, Coord{0, 2}, "v", 3.0)
	})
	if len(events) != 3 {
		t.Fatalf("saw %d events, want 3", len(events))
	}
	if got := events[2]; got.DepthBefore != 1 || got.DepthAfter != 2 {
		t.Errorf("round relay depths = (%d,%d), want (1,2)", got.DepthBefore, got.DepthAfter)
	}
}

func TestPhaseStampsEventsAndResets(t *testing.T) {
	m := New()
	var phases []string
	m.SetSink(trace.SinkFunc(func(e *trace.Event) { phases = append(phases, e.Phase) }))
	m.Set(Coord{0, 0}, "v", 1)
	m.Send(Coord{0, 0}, "v", Coord{0, 1}, "v")
	m.Phase("up")
	m.Send(Coord{0, 1}, "v", Coord{0, 2}, "v")
	m.Phase("")
	m.Send(Coord{0, 2}, "v", Coord{0, 3}, "v")
	m.Phase("stale")
	m.Reset() // clears the phase, keeps the sink
	m.Set(Coord{0, 0}, "v", 1)
	m.Send(Coord{0, 0}, "v", Coord{0, 1}, "v")
	want := []string{"", "up", "", ""}
	if len(phases) != len(want) {
		t.Fatalf("saw %d events, want %d", len(phases), len(want))
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Errorf("event %d phase = %q, want %q", i, phases[i], want[i])
		}
	}
}

func TestClockQuery(t *testing.T) {
	m := New()
	m.Set(Coord{0, 0}, "v", 1)
	m.Send(Coord{0, 0}, "v", Coord{0, 4}, "v")
	d, dist := m.Clock(Coord{0, 4})
	if d != 1 || dist != 4 {
		t.Errorf("clock = (%d,%d), want (1,4)", d, dist)
	}
	d, dist = m.Clock(Coord{9, 9})
	if d != 0 || dist != 0 {
		t.Errorf("untouched clock = (%d,%d)", d, dist)
	}
}

func TestRegistersListing(t *testing.T) {
	m := New()
	c := Coord{0, 0}
	m.Set(c, "b", 1)
	m.Set(c, "a", 2)
	got := m.Registers(c)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Registers = %v", got)
	}
	if m.Registers(Coord{9, 9}) != nil {
		t.Error("Registers of untouched PE should be nil")
	}
}

func TestParRoundIndependence(t *testing.T) {
	// In a parallel round, a PE that receives a message and then sends one
	// must not chain the two: both chains extend pre-round clocks.
	m := New()
	m.Set(Coord{0, 0}, "v", 1)
	m.Set(Coord{0, 1}, "v", 2)
	m.Par(func(send func(from, to Coord, dstReg Reg, v Value)) {
		send(Coord{0, 0}, Coord{0, 1}, "in", 1)
		send(Coord{0, 1}, Coord{0, 2}, "in", 2)
	})
	if got := m.Metrics(); got.Depth != 1 {
		t.Errorf("par round depth = %d, want 1", got.Depth)
	}
	// A subsequent send from a round receiver chains onto the round.
	m.Send(Coord{0, 2}, "in", Coord{0, 3}, "in")
	if got := m.Metrics(); got.Depth != 2 {
		t.Errorf("post-round depth = %d, want 2", got.Depth)
	}
}

func TestParSelfSendFree(t *testing.T) {
	m := New()
	m.Par(func(send func(from, to Coord, dstReg Reg, v Value)) {
		send(Coord{1, 1}, Coord{1, 1}, "x", 9)
	})
	if got := m.Metrics(); got.Energy != 0 || got.Messages != 0 {
		t.Errorf("self send in Par not free: %v", got)
	}
	if m.Get(Coord{1, 1}, "x") != 9 {
		t.Error("self send in Par lost value")
	}
}

func TestParLastWriteWins(t *testing.T) {
	m := New()
	m.Par(func(send func(from, to Coord, dstReg Reg, v Value)) {
		send(Coord{0, 0}, Coord{2, 2}, "x", "first")
		send(Coord{1, 1}, Coord{2, 2}, "x", "second")
	})
	if got := m.Get(Coord{2, 2}, "x"); got != "second" {
		t.Errorf("last write should win, got %v", got)
	}
}

func TestIndependentBranchesDoNotChain(t *testing.T) {
	// Two branches relay through the same PE; their chains must not
	// concatenate, and the join must keep the max.
	m := New()
	shared := Coord{5, 5}
	m.Set(Coord{0, 0}, "v", 1)
	m.Set(Coord{9, 9}, "v", 2)
	m.Independent(
		func() {
			m.Send(Coord{0, 0}, "v", shared, "a")
			m.Send(shared, "a", Coord{0, 1}, "a")
		},
		func() {
			m.Send(Coord{9, 9}, "v", shared, "b")
			m.Send(shared, "b", Coord{9, 8}, "b")
		},
	)
	if d := m.Metrics().Depth; d != 2 {
		t.Errorf("independent branches depth = %d, want 2", d)
	}
	// A later send from the shared PE chains onto the join's maximum
	// receive-clock (depth 1 — outgoing sends never advance the sender).
	m.Send(shared, "a", Coord{5, 6}, "c")
	if d := m.Metrics().Depth; d != 2 {
		t.Errorf("post-join depth = %d, want 2", d)
	}
}

func TestIndependentNested(t *testing.T) {
	m := New()
	hub := Coord{0, 0}
	m.Set(hub, "v", 1)
	m.Independent(
		func() {
			m.Independent(
				func() { m.Send(hub, "v", Coord{0, 1}, "x") },
				func() { m.Send(hub, "v", Coord{0, 2}, "x") },
			)
		},
		func() { m.Send(hub, "v", Coord{0, 3}, "x") },
	)
	if d := m.Metrics().Depth; d != 1 {
		t.Errorf("nested independent depth = %d, want 1", d)
	}
}

func TestIndependentSingleAndEmpty(t *testing.T) {
	m := New()
	m.Independent()
	ran := false
	m.Independent(func() { ran = true })
	if !ran {
		t.Error("single-task Independent did not run the task")
	}
}

func TestTouchedPEs(t *testing.T) {
	m := New()
	if m.TouchedPEs() != 0 {
		t.Error("fresh machine has touched PEs")
	}
	m.Set(Coord{0, 0}, "v", 1)
	m.Send(Coord{0, 0}, "v", Coord{1, 1}, "v")
	if got := m.TouchedPEs(); got != 2 {
		t.Errorf("TouchedPEs = %d, want 2", got)
	}
}

func TestMetricsString(t *testing.T) {
	s := Metrics{Energy: 5, Depth: 2, Distance: 3, Messages: 1, PeakMemory: 4}.String()
	for _, want := range []string{"energy=5", "depth=2", "distance=3", "messages=1", "peakMem=4"} {
		if !strings.Contains(s, want) {
			t.Errorf("Metrics.String() = %q missing %q", s, want)
		}
	}
	if got := (Coord{1, 2}).String(); got != "p(1,2)" {
		t.Errorf("Coord.String() = %q", got)
	}
}
