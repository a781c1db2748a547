package machine

import "repro/internal/fabric"

// Congestion tracking. The model's energy metric is the *total* load on
// the communication network; for architects the complementary quantity is
// the *maximum* load on any single mesh link. This opt-in tracker routes
// every message along the dimension-ordered (X-then-Y) path a mesh NoC
// would use and counts traversals per directed link. It is an extension
// beyond the paper's metrics, used by the congestion experiment and the
// visualization tool; tracking costs O(distance) bookkeeping per message,
// so it is off by default. Messages are walked between their physical
// homes: the virtual XY path under Ideal, the XY path between the homes on
// a mesh, and the wrap-aware shortest XY path on a torus. Under a finite
// backend the link loads are therefore loads on *physical* fabric links,
// and TotalLinkTraversals still equals the energy, because every message
// bumps exactly its backend distance in links. The link loads and the walk
// live in package fabric, which the trace heatmap shares, so a heatmap fed
// by a machine on the same backend shows exactly the loads tracked here.

// EnableCongestionTracking starts counting per-link traffic under
// dimension-ordered (column-first, then row) routing. Call before running
// the algorithm of interest.
func (m *Machine) EnableCongestionTracking() {
	m.cong = &fabric.Links{}
}

// DisableCongestionTracking stops per-link accounting and discards the
// recorded loads. Machine pools use it to hand a machine leased for a
// congestion sweep back to ordinary (tracking-free) service.
func (m *Machine) DisableCongestionTracking() { m.cong = nil }

// MaxCongestion returns the highest traversal count over all directed mesh
// links, or 0 if tracking is disabled.
func (m *Machine) MaxCongestion() int64 {
	if m.cong == nil {
		return 0
	}
	return m.cong.Peak()
}

// TotalLinkTraversals returns the sum of link traversals — with XY routing
// this equals the energy, which tests use as a consistency check.
func (m *Machine) TotalLinkTraversals() int64 {
	if m.cong == nil {
		return 0
	}
	return m.cong.Total()
}
