package machine

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/fabric"
)

// Finite-hardware backends. The model's grid is unbounded with O(1) memory
// per PE; every real target is a finite W×H fabric. A Backend selects the
// cost model messages are charged under:
//
//   - Ideal: the paper's unbounded grid — Manhattan distance between the
//     virtual coordinates themselves. The zero value; costs nothing.
//   - Mesh: a finite W×H grid of physical PEs. Virtual PEs fold onto it
//     periodically: along each axis, a pane of size·Block virtual cells
//     maps onto the fabric with Block consecutive virtual cells per
//     physical PE, and the pane repeats across the unbounded axis. A
//     message is charged the Manhattan distance between the physical homes
//     of its endpoints.
//   - Torus: the mesh plus wraparound links — per-axis distance is the
//     shorter way around the ring.
//
// Folding changes costs, never results: register routing, values and
// message counts are untouched, so answers are byte-identical under every
// backend (TestBackendInvariance pins this). Two distinct virtual
// PEs may share a physical home; a message between them costs zero energy
// but still counts as a message and a chain hop. Memory accounting under a
// finite backend additionally tracks how many registers are co-resident on
// each physical PE (see Machine.SetBackend).
type Backend struct {
	Kind BackendKind
	// W, H are the physical fabric dimensions (columns, rows). Ignored for
	// Ideal.
	W, H int
	// Block is the per-axis fold factor: each physical PE hosts a
	// Block×Block block of virtual PEs per pane. 1 (or 0, normalized to 1)
	// means one virtual PE per physical PE per pane.
	Block int
}

// BackendKind names the cost model of a Backend.
type BackendKind uint8

const (
	BackendIdeal BackendKind = iota
	BackendMesh
	BackendTorus
)

// Ideal returns the unbounded paper-model backend (the default).
func Ideal() Backend { return Backend{} }

// Mesh returns a finite w×h mesh backend with per-axis fold factor block.
func Mesh(w, h, block int) Backend {
	return Backend{Kind: BackendMesh, W: w, H: h, Block: block}
}

// Torus returns a finite w×h torus backend with per-axis fold factor block.
func Torus(w, h, block int) Backend {
	return Backend{Kind: BackendTorus, W: w, H: h, Block: block}
}

// maxFabricPEs bounds W*H: the machine keeps one int32 occupancy counter
// per physical PE, so an absurd spec would be an absurd allocation.
const maxFabricPEs = 1 << 22

func (b Backend) validate() error {
	switch b.Kind {
	case BackendIdeal:
		return nil
	case BackendMesh, BackendTorus:
		if b.Block < 0 {
			return fmt.Errorf("machine: backend %s: negative fold block", b)
		}
		if err := b.fab().Check(); err != nil {
			return fmt.Errorf("machine: backend %s: %v", b, err)
		}
		// Overflow-safe W*H ≤ maxFabricPEs: the product itself can wrap
		// negative for adversarial dimensions, so divide instead.
		if b.W > maxFabricPEs/b.H {
			return fmt.Errorf("machine: backend %s: fabric exceeds %d physical PEs", b, maxFabricPEs)
		}
		return nil
	}
	return fmt.Errorf("machine: unknown backend kind %d", b.Kind)
}

// normalize maps the accepted zero forms onto canonical values.
func (b Backend) normalize() Backend {
	if b.Kind == BackendIdeal {
		return Backend{}
	}
	if b.Block < 1 {
		b.Block = 1
	}
	return b
}

// Finite reports whether the backend folds onto a finite fabric.
func (b Backend) Finite() bool { return b.Kind != BackendIdeal }

// String renders the backend in the spec syntax ParseBackend accepts:
// "ideal", "mesh:WxH", "torus:WxH:block".
func (b Backend) String() string {
	switch b.Kind {
	case BackendIdeal:
		return "ideal"
	case BackendMesh, BackendTorus:
		name := "mesh"
		if b.Kind == BackendTorus {
			name = "torus"
		}
		if b.Block > 1 {
			return fmt.Sprintf("%s:%dx%d:%d", name, b.W, b.H, b.Block)
		}
		return fmt.Sprintf("%s:%dx%d", name, b.W, b.H)
	}
	return fmt.Sprintf("backend(%d)", b.Kind)
}

// ParseBackend parses a backend spec: "ideal" (or ""), "mesh:WxH[:block]"
// or "torus:WxH[:block]", e.g. "mesh:16x16" or "torus:32x32:4".
func ParseBackend(spec string) (Backend, error) {
	s := strings.TrimSpace(strings.ToLower(spec))
	if s == "" || s == "ideal" {
		return Backend{}, nil
	}
	name, rest, ok := strings.Cut(s, ":")
	var kind BackendKind
	switch name {
	case "mesh":
		kind = BackendMesh
	case "torus":
		kind = BackendTorus
	default:
		return Backend{}, fmt.Errorf("machine: unknown backend %q (want ideal, mesh:WxH[:block] or torus:WxH[:block])", spec)
	}
	if !ok {
		return Backend{}, fmt.Errorf("machine: backend %q: missing WxH dimensions", spec)
	}
	dims, blockStr, hasBlock := strings.Cut(rest, ":")
	wStr, hStr, ok := strings.Cut(dims, "x")
	if !ok {
		return Backend{}, fmt.Errorf("machine: backend %q: dimensions must be WxH", spec)
	}
	w, err := strconv.Atoi(wStr)
	if err != nil {
		return Backend{}, fmt.Errorf("machine: backend %q: bad width %q", spec, wStr)
	}
	h, err := strconv.Atoi(hStr)
	if err != nil {
		return Backend{}, fmt.Errorf("machine: backend %q: bad height %q", spec, hStr)
	}
	block := 1
	if hasBlock {
		block, err = strconv.Atoi(blockStr)
		if err != nil || block < 1 {
			return Backend{}, fmt.Errorf("machine: backend %q: bad fold block %q", spec, blockStr)
		}
	}
	b := Backend{Kind: kind, W: w, H: h, Block: block}
	if err := b.validate(); err != nil {
		return Backend{}, err
	}
	return b, nil
}

// fab is the backend's fabric geometry: the zero (unbounded) fabric under
// Ideal, the W×H mesh or torus with its fold block otherwise.
func (b Backend) fab() fabric.Fabric {
	if b.Kind == BackendIdeal {
		return fabric.Fabric{}
	}
	return fabric.Fabric{W: b.W, H: b.H, Block: max(b.Block, 1), Torus: b.Kind == BackendTorus}
}

// Fold returns the physical home of virtual PE c (c itself under Ideal).
func (b Backend) Fold(c Coord) Coord {
	if b.Kind == BackendIdeal {
		return c
	}
	return Coord(b.fab().Fold(fabric.Coord(c)))
}

// axisDist is the per-axis physical distance between two folded
// coordinates: |Δ| on a mesh, the shorter way around the ring on a torus.
func (b Backend) axisDist(p1, p2, size int) int64 {
	d := absInt64(p1 - p2)
	if b.Kind == BackendTorus {
		if wrap := int64(size) - d; wrap < d {
			d = wrap
		}
	}
	return d
}

// Dist returns the cost of one message from a to c under this backend: the
// Manhattan distance of the virtual coordinates under Ideal, the (mesh or
// torus) distance between the physical homes otherwise.
func (b Backend) Dist(a, c Coord) int64 {
	if b.Kind == BackendIdeal {
		return Dist(a, c)
	}
	return b.homeDist(b.Fold(a), b.Fold(c))
}

// homeDist is the cost of one message between two homes as Fold returns
// them: Manhattan under Ideal and on a mesh, wraparound on a torus.
func (b Backend) homeDist(p, q Coord) int64 {
	if b.Kind != BackendTorus {
		return Dist(p, q)
	}
	return b.axisDist(p.Row, q.Row, b.H) + b.axisDist(p.Col, q.Col, b.W)
}

// physIndex is the dense row-major index of c's physical home on the
// fabric. Only meaningful for finite backends.
func (b Backend) physIndex(c Coord) int {
	p := b.Fold(c)
	return p.Row*b.W + p.Col
}
