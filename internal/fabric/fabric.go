// Package fabric is the geometry of a finite spatial fabric: how the
// unbounded virtual grid of the Spatial Computer Model folds onto W×H
// physical PEs, the cap that keeps a fold's arithmetic from overflowing,
// and the dimension-ordered (X-then-Y) link walk a message takes, counted
// per directed link. The machine's mesh/torus backends and congestion
// tracker and the trace heatmap all use it, so a heatmap fed by a machine
// on the same fabric shows exactly the link loads the machine tracked.
package fabric

import "fmt"

// Coord is a grid coordinate, virtual or physical. machine.Coord and
// trace.Coord have the same layout and convert to it for free.
type Coord struct {
	Row, Col int
}

// MaxSpan bounds the per-axis pane span size·Block. Folding computes that
// product, so without a cap a huge Block wraps it (to zero or negative)
// and the first fold divides by zero. 2^30 keeps the product safe even for
// 32-bit int while allowing panes of a billion virtual cells per axis — far
// beyond any sweep.
const MaxSpan = 1 << 30

// Fabric is a W×H grid of physical PEs onto which the virtual grid folds
// periodically: along each axis a pane of size·Block virtual cells maps
// onto the fabric with Block consecutive virtual cells per physical PE, and
// the pane repeats across the unbounded axis. Torus adds wraparound links.
// The zero value is the unbounded grid itself: no fold, no wraparound.
type Fabric struct {
	W, H  int // physical columns and rows; 0 for the unbounded grid
	Block int // per-axis fold factor, at least 1 on a finite fabric
	Torus bool
}

// Check reports why a finite fabric with Block ≥ 1 cannot be folded onto:
// a dimension below 1, or a pane span beyond MaxSpan. The span test divides
// instead of multiplying, so adversarial sizes cannot wrap it.
func (f Fabric) Check() error {
	switch {
	case f.W < 1 || f.H < 1:
		return fmt.Errorf("fabric must be at least 1x1")
	case f.Block > MaxSpan/max(f.W, f.H):
		return fmt.Errorf("fold block exceeds pane span cap %d", MaxSpan)
	}
	return nil
}

// Fold returns the physical home of virtual coordinate c (c itself on the
// unbounded grid).
func (f Fabric) Fold(c Coord) Coord {
	if f.W == 0 {
		return c
	}
	return Coord{Row: foldAxis(c.Row, f.H, f.Block), Col: foldAxis(c.Col, f.W, f.Block)}
}

// foldAxis maps a virtual axis coordinate onto its physical home on an axis
// of size physical PEs: the pane of size·block cells repeats periodically
// (Euclidean modulo, so negative scratch coordinates wrap onto the pane
// too), and block consecutive cells inside a pane share one physical PE.
func foldAxis(v, size, block int) int {
	span := size * block
	u := v % span
	if u < 0 {
		u += span
	}
	return u / block
}
