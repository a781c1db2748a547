package harness

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/simcache"
)

// backendPoint scatters a deterministic burst of messages and reports the
// energy it cost; with identical workloads per point, the reported energy
// is a pure function of the runner's backend.
func backendPoint(i int, env *Env) []Row {
	m := env.Machine()
	n := 64 + 8*i
	m.Par(func(send func(from, to machine.Coord, dstReg machine.Reg, v machine.Value)) {
		for j := 0; j < n; j++ {
			from := machine.Coord{Row: j % 16, Col: j / 16}
			to := machine.Coord{Row: (j * 7) % 16, Col: (j * 3) % 16}
			send(from, to, "v", float64(j))
		}
	})
	met := m.Metrics()
	return One(i, met.Energy, met.Messages)
}

// TestWithBackendAppliedAndRestored: leased machines carry the runner's
// backend; machines returned to the pool are restored to ideal.
func TestWithBackendAppliedAndRestored(t *testing.T) {
	bk := machine.Mesh(4, 4, 4)
	r := New(1, WithWorkers(1), WithBackend(bk))
	rows := r.Sweep("backend-applied", 3, func(i int, env *Env) []Row {
		if got := env.Machine().Backend().String(); got != bk.String() {
			t.Errorf("point %d: leased machine backend %q, want %q", i, got, bk.String())
		}
		return backendPoint(i, env)
	})
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	m := machines.Get().(*machine.Machine)
	if m.Backend().Finite() {
		t.Errorf("pooled machine backend %q after release, want ideal", m.Backend())
	}
}

// TestWithBackendChangesCostsNotWorkloads: the backend is not part of the
// point RNG seed, so runs on different fabrics measure the same workload —
// message counts match — while folded energies contract (E_mesh <= E_ideal).
func TestWithBackendChangesCostsNotWorkloads(t *testing.T) {
	ideal := New(9, WithWorkers(2)).Sweep("backend-costs", 5, backendPoint)
	mesh := New(9, WithWorkers(2), WithBackend(machine.Mesh(4, 4, 4))).Sweep("backend-costs", 5, backendPoint)
	for i := range ideal {
		if ideal[i][2] != mesh[i][2] {
			t.Errorf("point %d: message counts diverge (%v vs %v) — backend leaked into the workload", i, ideal[i][2], mesh[i][2])
		}
		if mesh[i][1].(int64) > ideal[i][1].(int64) {
			t.Errorf("point %d: mesh energy %v exceeds ideal %v", i, mesh[i][1], ideal[i][1])
		}
	}
}

// TestCacheKeyedByBackend: rows measured on one fabric must never be served
// to a run on another — including the ideal default, whose key encoding is
// the canonical "ideal" either way the runner spells it.
func TestCacheKeyedByBackend(t *testing.T) {
	cache := simcache.New(simcache.Memory(), 0)
	base := []Option{WithCache(cache), WithCacheVersion("t"), WithWorkers(1)}
	New(1, base...).Sweep("backend-keyed", 4, backendPoint)
	if st := cache.Stats(); st.Misses != 4 {
		t.Fatalf("priming run: %+v", st)
	}

	before := cache.Stats().Hits
	New(1, append([]Option{WithBackend(machine.Mesh(8, 8, 2))}, base...)...).Sweep("backend-keyed", 4, backendPoint)
	if after := cache.Stats().Hits; after != before {
		t.Errorf("mesh-backend run hit the ideal rows (%d -> %d hits)", before, after)
	}
	before = cache.Stats().Hits
	New(1, append([]Option{WithBackend(machine.Torus(8, 8, 2))}, base...)...).Sweep("backend-keyed", 4, backendPoint)
	if after := cache.Stats().Hits; after != before {
		t.Errorf("torus-backend run hit foreign rows (%d -> %d hits)", before, after)
	}

	// An explicit ideal backend is the same address as the default.
	before = cache.Stats().Hits
	New(1, append([]Option{WithBackend(machine.Ideal())}, base...)...).Sweep("backend-keyed", 4, backendPoint)
	if got := cache.Stats().Hits - before; got != 4 {
		t.Errorf("explicit-ideal rerun scored %d hits, want 4 (canonical key form)", got)
	}

	// And a warmed mesh run hits its own rows.
	before = cache.Stats().Hits
	New(1, append([]Option{WithBackend(machine.Mesh(8, 8, 2))}, base...)...).Sweep("backend-keyed", 4, backendPoint)
	if got := cache.Stats().Hits - before; got != 4 {
		t.Errorf("warmed mesh rerun scored %d hits, want 4", got)
	}
}
