package machine

import "testing"

func TestCongestionSingleMessage(t *testing.T) {
	m := New()
	m.EnableCongestionTracking()
	m.Set(Coord{0, 0}, "v", 1)
	m.Send(Coord{0, 0}, "v", Coord{2, 3}, "v")
	if got := m.MaxCongestion(); got != 1 {
		t.Errorf("max congestion = %d, want 1", got)
	}
	if got, want := m.TotalLinkTraversals(), m.Metrics().Energy; got != want {
		t.Errorf("traversals %d != energy %d", got, want)
	}
}

func TestCongestionSharedLink(t *testing.T) {
	// Two messages eastward along the same row share the first link.
	m := New()
	m.EnableCongestionTracking()
	m.Set(Coord{0, 0}, "v", 1)
	m.Send(Coord{0, 0}, "v", Coord{0, 3}, "a")
	m.Send(Coord{0, 0}, "v", Coord{0, 5}, "b")
	if got := m.MaxCongestion(); got != 2 {
		t.Errorf("max congestion = %d, want 2", got)
	}
}

func TestCongestionOppositeDirectionsIndependent(t *testing.T) {
	// East and west traversals of the same physical span are different
	// directed links.
	m := New()
	m.EnableCongestionTracking()
	m.Set(Coord{0, 0}, "v", 1)
	m.Set(Coord{0, 4}, "v", 2)
	m.Par(func(send func(from, to Coord, dstReg Reg, v Value)) {
		send(Coord{0, 0}, Coord{0, 4}, "v", 1)
		send(Coord{0, 4}, Coord{0, 0}, "v", 2)
	})
	if got := m.MaxCongestion(); got != 1 {
		t.Errorf("max congestion = %d, want 1 (opposite directions)", got)
	}
}

func TestCongestionXYRouting(t *testing.T) {
	// Column-first routing: (0,0)->(2,2) and (0,4)->(2,2) share no link
	// until the vertical segment at column 2 — where both descend.
	m := New()
	m.EnableCongestionTracking()
	m.Set(Coord{0, 0}, "v", 1)
	m.Set(Coord{0, 4}, "v", 2)
	m.Par(func(send func(from, to Coord, dstReg Reg, v Value)) {
		send(Coord{0, 0}, Coord{2, 2}, "a", 1)
		send(Coord{0, 4}, Coord{2, 2}, "b", 2)
	})
	if got := m.MaxCongestion(); got != 2 {
		t.Errorf("max congestion = %d, want 2 (shared vertical segment)", got)
	}
}

func TestCongestionDisabledByDefault(t *testing.T) {
	m := New()
	m.Set(Coord{0, 0}, "v", 1)
	m.Send(Coord{0, 0}, "v", Coord{5, 5}, "v")
	if m.MaxCongestion() != 0 || m.TotalLinkTraversals() != 0 {
		t.Error("congestion tracked without being enabled")
	}
}
