// Package mapping defines the layout/schedule vocabulary shared by the
// algorithm packages, the sweep harness, the result cache and the tuner.
//
// A Mapping is the discrete configuration a spatial-dataflow primitive can
// be instantiated under: which grid track arrays live on, what arity the
// broadcast/reduce trees use, what aspect ratio the processor tile has,
// and which sorting algorithm runs. The paper fixes one point of this
// space per primitive (Z-order layouts, quadrant-recursion collectives,
// 2-D mergesort); the tuner (internal/tuner) searches the rest of it.
// Mappings are serializable — String/Parse round-trip, and the canonical
// string form is what the simcache key and sweep registries embed — so a
// tuning verdict names a reproducible configuration, not an in-memory
// object.
package mapping

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/grid"
)

// Tile is the aspect ratio of the processor region an operation lays its
// data out on. The collectives' costs depend on it (Lemma IV.1's
// max(h,w) log max(h,w) term); the space-filling-curve tracks require
// TileSquare.
type Tile string

const (
	TileSquare Tile = "square" // side x side
	TileWide   Tile = "wide"   // side/2 x 2*side
	TileTall   Tile = "tall"   // 2*side x side/2
)

// Tiles lists every tile shape in canonical order.
func Tiles() []Tile { return []Tile{TileSquare, TileWide, TileTall} }

// SortAlgo selects the sorting algorithm for sort-family workloads.
type SortAlgo string

const (
	// SortBitonic is the bitonic network run over the mapping's track —
	// the Theta(n^{3/2} log n)-energy baseline of Lemma V.4 on row-major.
	SortBitonic SortAlgo = "bitonic"
	// SortOddEven is Batcher's odd-even mergesort network over the track.
	SortOddEven SortAlgo = "oddeven"
	// SortShearsort is the classic mesh algorithm (square row-major mesh,
	// polynomial depth).
	SortShearsort SortAlgo = "shearsort"
	// SortMerge is the paper's energy-optimal 2-D mergesort (Theorem V.8).
	SortMerge SortAlgo = "merge"
)

// SortAlgos lists every sort algorithm in canonical order.
func SortAlgos() []SortAlgo {
	return []SortAlgo{SortBitonic, SortOddEven, SortShearsort, SortMerge}
}

// Arities lists the broadcast/reduce tree fan-outs the space enumerates.
func Arities() []int { return []int{2, 4, 8} }

// Mapping is one point of the layout/schedule design space.
type Mapping struct {
	// Track is the array layout (and, for primitives with a
	// layout-specialized algorithm, the algorithm choice: a Z-order track
	// selects the paper's quadrant-recursive collectives).
	Track grid.TrackKind `json:"track"`
	// Arity is the fan-out of tree-shaped collectives (2 = the binary
	// baseline).
	Arity int `json:"arity"`
	// Tile is the aspect ratio of the data's processor region.
	Tile Tile `json:"tile"`
	// Sort is the sorting algorithm for sort-family workloads.
	Sort SortAlgo `json:"sort"`
}

// Default is the naive row-major baseline every tuning verdict is measured
// against: row-major layout, binary trees, square tile, bitonic sort.
func Default() Mapping {
	return Mapping{Track: grid.TrackRowMajor, Arity: 2, Tile: TileSquare, Sort: SortBitonic}
}

// String renders the canonical, Parse-able form:
// "track=rowmajor,arity=2,tile=square,sort=bitonic". Field order is fixed,
// so equal mappings always render equal strings (cache keys and sweep
// names depend on this).
func (m Mapping) String() string {
	return fmt.Sprintf("track=%s,arity=%d,tile=%s,sort=%s", m.Track, m.Arity, m.Tile, m.Sort)
}

// Validate reports the first unknown field value, if any.
func (m Mapping) Validate() error {
	if !m.Track.Valid() {
		return fmt.Errorf("mapping: unknown track %q", m.Track)
	}
	ok := false
	for _, a := range Arities() {
		if m.Arity == a {
			ok = true
		}
	}
	if !ok {
		return fmt.Errorf("mapping: arity %d not in %v", m.Arity, Arities())
	}
	switch m.Tile {
	case TileSquare, TileWide, TileTall:
	default:
		return fmt.Errorf("mapping: unknown tile %q", m.Tile)
	}
	switch m.Sort {
	case SortBitonic, SortOddEven, SortShearsort, SortMerge:
	default:
		return fmt.Errorf("mapping: unknown sort %q", m.Sort)
	}
	return nil
}

// Parse reads the String form. Omitted fields keep their Default value, so
// "track=zorder" and "sort=merge,arity=4" are valid partial overrides
// (the CLI's -mapping flag leans on this).
func Parse(s string) (Mapping, error) {
	m := Default()
	if strings.TrimSpace(s) == "" {
		return m, nil
	}
	for _, part := range strings.Split(s, ",") {
		key, val, found := strings.Cut(strings.TrimSpace(part), "=")
		if !found {
			return m, fmt.Errorf("mapping: %q is not key=value", part)
		}
		switch key {
		case "track":
			m.Track = grid.TrackKind(val)
		case "arity":
			a, err := strconv.Atoi(val)
			if err != nil {
				return m, fmt.Errorf("mapping: arity %q: %v", val, err)
			}
			m.Arity = a
		case "tile":
			m.Tile = Tile(val)
		case "sort":
			m.Sort = SortAlgo(val)
		default:
			return m, fmt.Errorf("mapping: unknown field %q", key)
		}
	}
	return m, m.Validate()
}

// MarshalJSON/UnmarshalJSON use the struct form; a Mapping in a JSON
// document is {"track":...,"arity":...,"tile":...,"sort":...}.
var _ json.Marshaler = Mapping{}

// MarshalJSON emits the struct fields (deterministic field order).
func (m Mapping) MarshalJSON() ([]byte, error) {
	type plain Mapping // strip the method set to avoid recursion
	return json.Marshal(plain(m))
}

// Space enumerates the full cross product of the mapping space in a fixed
// canonical order (track-major, then arity, tile, sort). Workloads prune
// it with their own validity and canonicalization rules; see
// internal/tuner.
func Space() []Mapping {
	var out []Mapping
	for _, tr := range grid.TrackKinds() {
		for _, a := range Arities() {
			for _, ti := range Tiles() {
				for _, so := range SortAlgos() {
					out = append(out, Mapping{Track: tr, Arity: a, Tile: ti, Sort: so})
				}
			}
		}
	}
	return out
}

// SortMappings orders mappings by their canonical string — the
// deterministic tie-break and table order used everywhere mappings are
// listed. Each string is rendered once, not once per comparison.
func SortMappings(ms []Mapping) {
	type keyed struct {
		key string
		m   Mapping
	}
	ks := make([]keyed, len(ms))
	for i, m := range ms {
		ks[i] = keyed{m.String(), m}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	for i, k := range ks {
		ms[i] = k.m
	}
}

// RegionFor returns the processor region of shape t that holds exactly n
// elements, anchored at the origin. ok is false when n does not factor
// into the shape (n must be a perfect square for TileSquare, and its side
// must additionally be even for TileWide/TileTall).
func RegionFor(n int, t Tile) (grid.Rect, bool) {
	side := 1
	for side*side < n {
		side++
	}
	if side*side != n {
		return grid.Rect{}, false
	}
	switch t {
	case TileSquare:
		return grid.Square(machineOrigin, side), true
	case TileWide:
		if side%2 != 0 {
			return grid.Rect{}, false
		}
		return grid.Rect{H: side / 2, W: side * 2}, true
	case TileTall:
		if side%2 != 0 {
			return grid.Rect{}, false
		}
		return grid.Rect{H: side * 2, W: side / 2}, true
	}
	return grid.Rect{}, false
}

var machineOrigin = grid.Rect{}.Origin
