package machine

import (
	"testing"
	"testing/quick"

	"repro/internal/fabric"
)

func TestParseBackend(t *testing.T) {
	cases := []struct {
		spec string
		want Backend
	}{
		{"ideal", Backend{}},
		{"", Backend{}},
		{"  Ideal ", Backend{}},
		{"mesh:16x16", Mesh(16, 16, 1)},
		{"mesh:8x4", Mesh(8, 4, 1)},
		{"torus:32x32:4", Torus(32, 32, 4)},
		{"MESH:16x16:2", Mesh(16, 16, 2)},
	}
	for _, c := range cases {
		got, err := ParseBackend(c.spec)
		if err != nil {
			t.Errorf("ParseBackend(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseBackend(%q) = %+v, want %+v", c.spec, got, c.want)
		}
		// String must round-trip through ParseBackend.
		back, err := ParseBackend(got.String())
		if err != nil || back != got {
			t.Errorf("round-trip %q -> %v -> %v (%v)", c.spec, got, back, err)
		}
	}
	for _, bad := range []string{"mesh", "mesh:16", "mesh:0x4", "mesh:4x-1", "torus:axb", "ring:8x8", "mesh:16x16:0", "mesh:16x16:x", "mesh:99999x99999",
		// Overflow probes: W*H and W·Block/H·Block must be checked without
		// computing a product that can wrap (these crashed the daemon once).
		"mesh:3037000500x3037000500", "torus:3037000500x3037000500",
		"mesh:4x4:4611686018427387904", "torus:4x4:4611686018427387904",
		"mesh:4x4:1073741824"} {
		if b, err := ParseBackend(bad); err == nil {
			t.Errorf("ParseBackend(%q) = %v, want error", bad, b)
		}
	}
}

// TestBackendOverflowRejected pins the two overflow regressions: adversarial
// W×H whose product wraps negative, and a fold block large enough that
// foldAxis's size*block span wraps to zero (integer divide by zero on the
// first message). Both must be rejected by validate — never reach SetBackend
// or Fold.
func TestBackendOverflowRejected(t *testing.T) {
	huge := []Backend{
		Mesh(3037000500, 3037000500, 1),
		Torus(3037000500, 3037000500, 1),
		Mesh(4, 4, 4611686018427387904),
		Torus(4, 4, 4611686018427387904),
		Mesh(4, 4, fabric.MaxSpan/4+1),
	}
	for _, b := range huge {
		if err := b.validate(); err == nil {
			t.Errorf("validate(%+v) = nil, want overflow error", b)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetBackend(%+v) did not panic", b)
				}
			}()
			New().SetBackend(b)
		}()
	}
	// The largest admissible block still folds and routes without wrapping.
	b := Mesh(4, 4, fabric.MaxSpan/4)
	if err := b.validate(); err != nil {
		t.Fatalf("validate at pane-span cap: %v", err)
	}
	if got := b.Fold(Coord{Row: fabric.MaxSpan - 1, Col: 0}); got != (Coord{Row: 3, Col: 0}) {
		t.Errorf("Fold at pane edge = %v, want {3 0}", got)
	}
	if d := b.Dist(Coord{}, Coord{Row: fabric.MaxSpan - 1, Col: 0}); d != 3 {
		t.Errorf("Dist across pane = %d, want 3", d)
	}
}

func TestBackendFold(t *testing.T) {
	b := Mesh(4, 4, 2) // pane is 8x8 virtual cells
	cases := []struct {
		v    Coord
		want Coord
	}{
		{Coord{0, 0}, Coord{0, 0}},
		{Coord{1, 1}, Coord{0, 0}},
		{Coord{2, 3}, Coord{1, 1}},
		{Coord{7, 7}, Coord{3, 3}},
		{Coord{8, 8}, Coord{0, 0}},   // next pane wraps
		{Coord{-1, -1}, Coord{3, 3}}, // negative coords wrap onto the pane
		{Coord{-8, 15}, Coord{0, 3}},
	}
	for _, c := range cases {
		if got := b.Fold(c.v); got != c.want {
			t.Errorf("Fold(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	if got := Ideal().Fold(Coord{-5, 9}); got != (Coord{-5, 9}) {
		t.Errorf("Ideal fold moved %v", got)
	}
}

func TestBackendDistProperties(t *testing.T) {
	mesh := Mesh(8, 8, 2)
	torus := Torus(8, 8, 2)
	f := func(ar, ac, br, bc int16) bool {
		a := Coord{int(ar), int(ac)}
		b := Coord{int(br), int(bc)}
		dm := mesh.Dist(a, b)
		dt := torus.Dist(a, b)
		// Symmetric, non-negative, torus never longer than mesh, both
		// bounded by the fabric diameter.
		return dm == mesh.Dist(b, a) && dt == torus.Dist(b, a) &&
			dm >= 0 && dt >= 0 && dt <= dm && dm <= 14 && dt <= 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBackendDistContractionInPane(t *testing.T) {
	// Inside one pane the folded mesh distance never exceeds the ideal
	// distance, and the ideal distance is bounded by
	// block·(mesh distance + 2) per the fold-inflation bound.
	b := Mesh(8, 8, 4) // pane 32x32
	f := func(ar, ac, br, bc uint8) bool {
		a := Coord{int(ar) % 32, int(ac) % 32}
		c := Coord{int(br) % 32, int(bc) % 32}
		dm := b.Dist(a, c)
		di := Dist(a, c)
		return dm <= di && di <= int64(b.Block)*(dm+2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBackendTorusWrap(t *testing.T) {
	b := Torus(8, 8, 1)
	if d := b.Dist(Coord{0, 0}, Coord{0, 7}); d != 1 {
		t.Errorf("torus wrap col dist = %d, want 1", d)
	}
	if d := b.Dist(Coord{7, 0}, Coord{0, 0}); d != 1 {
		t.Errorf("torus wrap row dist = %d, want 1", d)
	}
	m := Mesh(8, 8, 1)
	if d := m.Dist(Coord{0, 0}, Coord{0, 7}); d != 7 {
		t.Errorf("mesh edge dist = %d, want 7", d)
	}
}

// TestBackendAnswersInvariant pins the core contract: backends change
// costs, never results. The same message pattern delivers the same
// registers under every backend; energy contracts on the folded fabrics.
func TestBackendAnswersInvariant(t *testing.T) {
	run := func(b Backend) (vals [4]Value, m Metrics) {
		mach := New()
		mach.SetBackend(b)
		for i := 0; i < 4; i++ {
			mach.Set(Coord{0, i * 5}, "v", i)
		}
		mach.Par(func(send func(from, to Coord, dstReg Reg, v Value)) {
			for i := 0; i < 4; i++ {
				send(Coord{0, i * 5}, Coord{3, 15 - i*5}, "v", i*10)
			}
		})
		for i := 0; i < 4; i++ {
			vals[i] = mach.Get(Coord{3, 15 - i*5}, "v")
		}
		return vals, mach.Metrics()
	}
	idealVals, idealM := run(Ideal())
	for _, b := range []Backend{Mesh(4, 4, 2), Torus(4, 4, 2), Mesh(32, 32, 1)} {
		vals, m := run(b)
		if vals != idealVals {
			t.Errorf("%v: values %v differ from ideal %v", b, vals, idealVals)
		}
		if m.Messages != idealM.Messages || m.Depth != idealM.Depth {
			t.Errorf("%v: messages/depth %v differ from ideal %v", b, m, idealM)
		}
		if m.Energy > idealM.Energy {
			t.Errorf("%v: folded energy %d exceeds ideal %d", b, m.Energy, idealM.Energy)
		}
	}
}

// TestBackendPhysicalMemory: folding a row of occupied virtual PEs onto one
// physical PE multiplies the reported peak by the number of co-residents.
func TestBackendPhysicalMemory(t *testing.T) {
	m := New()
	m.SetBackend(Mesh(2, 2, 2)) // each physical PE hosts a 2x2 virtual block per pane
	// Four virtual PEs of one 2x2 block, one register each: all share the
	// physical home (0,0).
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			m.Set(Coord{r, c}, "v", 1)
		}
	}
	if got := m.Metrics().PeakMemory; got != 4 {
		t.Errorf("folded PeakMemory = %d, want 4 (fold factor squared)", got)
	}
	// Freeing shrinks occupancy but not the recorded peak.
	m.Del(Coord{0, 0}, "v")
	m.Del(Coord{0, 1}, "v")
	if got := m.Metrics().PeakMemory; got != 4 {
		t.Errorf("PeakMemory after frees = %d, want peak 4", got)
	}
	// Under Ideal the same placement peaks at 1 register per PE.
	m2 := New()
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			m2.Set(Coord{r, c}, "v", 1)
		}
	}
	if got := m2.Metrics().PeakMemory; got != 1 {
		t.Errorf("ideal PeakMemory = %d, want 1", got)
	}
}

// TestBackendSetMidRunRebuildsOccupancy: SetBackend on a machine with live
// registers rebuilds the physical counts from current state.
func TestBackendSetMidRunRebuildsOccupancy(t *testing.T) {
	m := New()
	for i := 0; i < 4; i++ {
		m.Set(Coord{0, i}, "v", i)
	}
	m.SetBackend(Mesh(2, 2, 2)) // cols 0..3 fold onto physical cols 0,0,1,1 row 0
	if got := m.Metrics().PeakMemory; got != 2 {
		t.Errorf("rebuilt PeakMemory = %d, want 2", got)
	}
	m.SetBackend(Ideal())
	if got := m.Metrics().PeakMemory; got != 1 {
		t.Errorf("PeakMemory back on ideal = %d, want 1", got)
	}
}

// TestBackendSurvivesReset: the backend setting survives Reset (like
// shards/batch), while occupancy counts and peaks clear.
func TestBackendSurvivesReset(t *testing.T) {
	m := New()
	m.SetBackend(Torus(4, 4, 2))
	m.Set(Coord{0, 0}, "v", 1)
	m.Set(Coord{1, 1}, "v", 1)
	if got := m.Metrics().PeakMemory; got != 2 {
		t.Fatalf("pre-reset PeakMemory = %d, want 2", got)
	}
	m.Reset()
	if m.Backend() != Torus(4, 4, 2) {
		t.Errorf("backend did not survive Reset: %v", m.Backend())
	}
	if got := m.Metrics().PeakMemory; got != 0 {
		t.Errorf("post-reset PeakMemory = %d, want 0", got)
	}
	if d := m.bk.Dist(Coord{0, 0}, Coord{0, 7}); d != 1 {
		t.Errorf("post-reset torus dist = %d, want 1", d)
	}
}

// TestBackendCongestionConsistency: under every backend, the sum of link
// traversals equals the energy — each message bumps exactly its backend
// distance in (physical) links — and folding the same traffic onto a
// smaller fabric cannot reduce the peak link load.
func TestBackendCongestionConsistency(t *testing.T) {
	run := func(b Backend) (peak, total, energy int64) {
		m := New()
		m.SetBackend(b)
		m.EnableCongestionTracking()
		m.Par(func(send func(from, to Coord, dstReg Reg, v Value)) {
			for i := 0; i < 8; i++ {
				send(Coord{i, 0}, Coord{i, 12}, "v", i)
				send(Coord{0, i}, Coord{12, i}, "v", i)
			}
		})
		return m.MaxCongestion(), m.TotalLinkTraversals(), m.Metrics().Energy
	}
	var idealPeak int64
	for _, b := range []Backend{Ideal(), Mesh(16, 16, 1), Mesh(4, 4, 4), Torus(4, 4, 4)} {
		peak, total, energy := run(b)
		if total != energy {
			t.Errorf("%v: link traversals %d != energy %d", b, total, energy)
		}
		if b.Kind == BackendIdeal {
			idealPeak = peak
			continue
		}
		if b.Block > 1 && peak < idealPeak {
			t.Errorf("%v: folded peak link load %d below ideal %d", b, peak, idealPeak)
		}
	}
}

// TestBackendRegisterRoundsForcedSequential: a register-delivering round
// under a finite backend takes the sequential path even with sharding
// enabled, keeping the physical memory peak exact.
func TestBackendRegisterRoundsForcedSequential(t *testing.T) {
	run := func(shards int) Metrics {
		m := New()
		m.SetBackend(Mesh(2, 2, 4))
		m.SetShards(shards)
		m.shardMin = 1
		m.Par(func(send func(from, to Coord, dstReg Reg, v Value)) {
			for i := 0; i < 64; i++ {
				send(Coord{8, 8}, Coord{i / 8, i % 8}, "v", i)
			}
		})
		return m.Metrics()
	}
	seq := run(1)
	for _, k := range []int{2, 8} {
		if got := run(k); got != seq {
			t.Errorf("shards=%d metrics %v != sequential %v", k, got, seq)
		}
	}
	// All 64 destinations fold onto the 2x2 fabric: 16 co-residents each.
	if seq.PeakMemory != 16 {
		t.Errorf("folded PeakMemory = %d, want 16", seq.PeakMemory)
	}
}

// TestShardedFoldedMatchesSequential extends the byte-identical sharding
// contract to finite backends: the same workload folded onto a mesh or
// torus must yield identical metrics, clocks and registers for any shard
// count. Folding charges costs as messages are issued, so shard
// parallelism must never observe it; run with -race this also covers the
// occupancy counters the fold maintains per physical PE.
func TestShardedFoldedMatchesSequential(t *testing.T) {
	for _, bk := range []Backend{Mesh(6, 5, 3), Torus(6, 5, 3)} {
		base := New()
		base.SetBackend(bk)
		batchWorkload(base, 42)
		want := snapshotState(base)

		ideal := New()
		batchWorkload(ideal, 42)
		if base.Metrics().Energy == ideal.Metrics().Energy {
			t.Fatalf("%s: folded energy equals ideal; fold not engaged by the workload", bk)
		}

		for _, k := range []int{2, 4, 7} {
			m := New()
			m.SetBackend(bk)
			m.SetShards(k)
			m.shardMin = 1
			batchWorkload(m, 42)
			if got := snapshotState(m); got != want {
				t.Fatalf("%s shards=%d diverged from sequential folded engine:\n got %.300s\nwant %.300s", bk, k, got, want)
			}
		}
	}
}
