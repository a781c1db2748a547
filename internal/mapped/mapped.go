// Package mapped dispatches the library's primitives over a
// mapping.Mapping: one place that knows which algorithm variant and
// region geometry realize a given layout/schedule configuration. The
// spatialdf facade (WithMapping) and the tuner (internal/tuner) both
// route through it, so "the mapping track=zorder,arity=4,..." names the
// same simulated computation everywhere it appears — in a tuning
// verdict, a cached sweep row, or a facade call.
//
// Dispatch rules (the mapping fields each primitive honors):
//
//   - Scan honors Track: a Z-order track selects the paper's
//     energy-optimal quadtree scan (Lemma IV.3); row-major and Hilbert
//     tracks run the binary-tree ScanTrack along the curve.
//   - Reduce honors Track, Arity and Tile: a Z-order track with arity 4
//     is the paper's quadrant recursion (Corollary IV.2); every other
//     combination is an arity-way ReduceTree along the track. The tile
//     shape reshapes the processor region (the max(h,w) term of
//     Lemma IV.1) and applies only to the row-major track —
//     space-filling curves require a square power-of-two region.
//   - Sort honors Sort (the algorithm) and, for the network sorts, Track
//     (the wire layout). Merge (2-D mergesort) and shearsort are
//     region-structured and ignore the track.
//   - SpMV honors Track for the matrix subgrid (spmv.MultiplyMapped).
//
// Fields a primitive does not honor are ignored, never an error: the
// tuner's candidate lists canonicalize them away so equivalent mappings
// are enumerated once.
package mapped

import (
	"repro/internal/collectives"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/mapping"
	"repro/internal/order"
	"repro/internal/sortnet"
)

// ScanTrack returns the track scan order follows under mp: the caller
// lays input out along it and reads prefix sums back along it. r must be
// a square power-of-two region.
func ScanTrack(mp mapping.Mapping, r grid.Rect) grid.Track {
	return grid.TrackFor(mp.Track, r)
}

// Scan computes inclusive prefix sums of reg along ScanTrack(mp, r).
func Scan(m *machine.Machine, r grid.Rect, reg machine.Reg, op collectives.Op, identity machine.Value, mp mapping.Mapping) {
	if mp.Track == grid.TrackZOrder {
		collectives.Scan(m, r, reg, op, identity)
		return
	}
	collectives.ScanTrack(m, ScanTrack(mp, r), reg, op, identity)
}

// ReduceRegion returns the processor region holding n elements under
// mp's tile shape: the padded square of side grid.Pow2Side(n), reshaped
// to the tile. The tile applies only to the row-major track: the curve
// tracks, and odd or unit sides, fall back to the square.
func ReduceRegion(n int, mp mapping.Mapping) grid.Rect {
	side := grid.Pow2Side(n)
	if mp.Track == grid.TrackRowMajor && mp.Tile != mapping.TileSquare && side%2 == 0 {
		if r, ok := mapping.RegionFor(side*side, mp.Tile); ok {
			return r
		}
	}
	return grid.Square(machine.Coord{}, side)
}

// Reduce combines reg across r with op, leaving the result at r.Origin.
// r should come from ReduceRegion(n, mp).
func Reduce(m *machine.Machine, r grid.Rect, reg machine.Reg, op collectives.Op, mp mapping.Mapping) {
	if mp.Track == grid.TrackZOrder && mp.Arity == 4 {
		// The quadrant recursion *is* the 4-ary tree over the Z-order
		// curve, realized with the paper's multicast-free routing.
		collectives.Reduce(m, r, reg, op)
		return
	}
	collectives.ReduceTree(m, grid.TrackFor(mp.Track, r), reg, op, mp.Arity)
}

// SortTrack returns the track sorted output lands on under mp: the
// caller lays input out along it and reads the ascending order back
// along it. r must be a square power-of-two region.
func SortTrack(mp mapping.Mapping, r grid.Rect) grid.Track {
	switch mp.Sort {
	case mapping.SortMerge, mapping.SortShearsort:
		// Region-structured algorithms; output order is row-major.
		return grid.RowMajor(r)
	default:
		return grid.TrackFor(mp.Track, r)
	}
}

// Sort sorts reg ascending along SortTrack(mp, r) with mp's algorithm.
func Sort(m *machine.Machine, r grid.Rect, reg machine.Reg, less order.Less, mp mapping.Mapping) {
	switch mp.Sort {
	case mapping.SortMerge:
		core.MergeSort(m, r, reg, less)
	case mapping.SortShearsort:
		sortnet.Shearsort(m, r, reg, less)
	case mapping.SortOddEven:
		sortnet.Run(m, sortnet.OddEvenMergeSort(r.Size()), SortTrack(mp, r), reg, less)
	default: // mapping.SortBitonic
		sortnet.Sort(m, SortTrack(mp, r), reg, r.Size(), less)
	}
}
