// Package core implements the paper's primary contribution: the first
// energy- and distance-optimal algorithms with poly-logarithmic depth for
// sorting and rank selection in the Spatial Computer Model.
//
//   - AllPairsSort (Lemma V.5): a naive O(log n)-depth sort used on small
//     samples, with O(n^{5/2}) energy.
//   - SelectInSorted (Lemma V.6): deterministic rank selection in two sorted
//     arrays in O(n^{5/4}) energy, O(log n) depth and O(sqrt n) distance.
//   - Merge (Lemma V.7): merging two sorted arrays on adjacent subgrids in
//     O(n^{3/2}) energy and O(log^2 n) depth.
//   - MergeSort (Theorem V.8): the energy-optimal 2-D mergesort with
//     O(n^{3/2}) energy, O(log^3 n) depth and O(sqrt n) distance, matching
//     the permutation lower bound (Lemma V.1 / Corollary V.2).
//   - Select (Theorem VI.3): randomized rank selection with O(n) energy and
//     O(log^2 n) depth with high probability.
//
// Keyed is the pipeline behind the paper's concurrent read and write
// (Lemma VII.2) and its direct SpMV (Theorem VIII.2): sort records by key,
// elect one leader per key, fetch and spread a value per segment, combine
// each segment and deliver its total. The pram, spmv and graph packages
// run on it.
package core

import (
	"repro/internal/machine"
	"repro/internal/order"
)

// tagged lifts an element to a totally ordered tuple (value, source array,
// index) so that rank arithmetic in the deterministic selection is exact
// even with duplicate values.
type tagged struct {
	v   machine.Value
	src int8 // 0 = array A, 1 = array B
	idx int  // index within the source array
}

// before reports whether x precedes y in the tagged order: by value,
// breaking ties by (src, idx). Since less is a strict weak ordering, this
// is a strict total order on distinct elements.
func (x tagged) before(y tagged, less order.Less) bool {
	if less(x.v, y.v) {
		return true
	}
	if less(y.v, x.v) {
		return false
	}
	if x.src != y.src {
		return x.src < y.src
	}
	return x.idx < y.idx
}

// taggedLess adapts before to boxed values, for the sorting networks.
func taggedLess(less order.Less) order.Less {
	return func(a, b machine.Value) bool { return a.(tagged).before(b.(tagged), less) }
}

// padded wraps an element or a +/- infinity sentinel, used to pad arrays to
// power-of-two sizes for the bitonic network and to represent the dummy
// pivot s_l = -infinity of the randomized selection (Section VI, step 3).
type padded struct {
	v   machine.Value
	inf int8 // -1: below everything, 0: ordinary value, +1: above everything
}

// paddedLess lifts less to padded values.
func paddedLess(less order.Less) order.Less {
	return func(a, b machine.Value) bool {
		x, y := a.(padded), b.(padded)
		if x.inf != y.inf {
			return x.inf < y.inf
		}
		if x.inf != 0 {
			return false
		}
		return less(x.v, y.v)
	}
}
