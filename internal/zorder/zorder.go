// Package zorder implements Morton (Z-order) space-filling curve
// encoding for the Spatial Computer Model.
//
// Storing arrays according to a Z-order traversal of the grid improves the
// spatial locality of parallel algorithms (Section III of the paper): the
// curve visits the four quadrants of a square grid recursively, top-left,
// top-right, bottom-left, bottom-right. Observation 1 states that sending a
// message along each edge of a Z-order curve of a sqrt(n) x sqrt(n) subgrid
// takes O(n) energy.
//
// Coordinates follow the paper's convention: processor p_{i,j} sits at row i,
// column j. The Morton index interleaves row and column bits so that the
// quadrant order is (top-left, top-right, bottom-left, bottom-right), i.e.
// the row bit is the more significant bit of each pair.
package zorder

import (
	"math"
	"math/bits"
)

// Encode returns the Morton index of the cell at (row, col).
// Row and col must be non-negative and fit in 32 bits.
func Encode(row, col int) uint64 {
	return interleave(uint32(col)) | interleave(uint32(row))<<1
}

// Decode returns the (row, col) cell of the Morton index i.
func Decode(i uint64) (row, col int) {
	return int(deinterleave(i >> 1)), int(deinterleave(i))
}

// interleave spreads the bits of x so that bit k of x lands at bit 2k.
func interleave(x uint32) uint64 {
	v := uint64(x)
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// deinterleave collects the even-position bits of v into a compact integer.
func deinterleave(v uint64) uint32 {
	v &= 0x5555555555555555
	v = (v | v>>1) & 0x3333333333333333
	v = (v | v>>2) & 0x0f0f0f0f0f0f0f0f
	v = (v | v>>4) & 0x00ff00ff00ff00ff
	v = (v | v>>8) & 0x0000ffff0000ffff
	v = (v | v>>16) & 0x00000000ffffffff
	return uint32(v)
}

// Curve returns the cells of a side x side grid in Z-order, as (row, col)
// pairs relative to the grid origin. Side must be a power of two.
func Curve(side int) [][2]int {
	if !IsPow2(side) {
		panic("zorder: side must be a power of two")
	}
	n := side * side
	out := make([][2]int, n)
	for i := 0; i < n; i++ {
		r, c := Decode(uint64(i))
		out[i] = [2]int{r, c}
	}
	return out
}

// CurveEnergy returns the total Manhattan length of the Z-order curve on a
// side x side grid, i.e. the energy of sending one message along each curve
// edge (Observation 1: O(n)).
func CurveEnergy(side int) int64 {
	var total int64
	pr, pc := 0, 0
	for i := 1; i < side*side; i++ {
		r, c := Decode(uint64(i))
		total += abs64(r-pr) + abs64(c-pc)
		pr, pc = r, c
	}
	return total
}

func abs64(x int) int64 {
	if x < 0 {
		return int64(-x)
	}
	return int64(x)
}

// IsPow2 reports whether x is a positive power of two.
func IsPow2(x int) bool {
	return x > 0 && x&(x-1) == 0
}

// IsPow4 reports whether x is a positive power of four.
func IsPow4(x int) bool {
	return IsPow2(x) && bits.TrailingZeros64(uint64(x))%2 == 0
}

// Log2 returns floor(log2(x)) for x > 0.
func Log2(x int) int {
	if x <= 0 {
		panic("zorder: Log2 of non-positive value")
	}
	return bits.Len64(uint64(x)) - 1
}

// NextPow4 returns the smallest power of four >= x (x >= 1).
func NextPow4(x int) int {
	if x < 1 {
		return 1
	}
	p := 1
	for p < x {
		p *= 4
	}
	return p
}

// NextPow2 returns the smallest power of two >= x (x >= 1).
func NextPow2(x int) int {
	if x < 1 {
		return 1
	}
	p := 1
	for p < x {
		p *= 2
	}
	return p
}

// FloorSqrt returns the floor of the square root of n >= 0, exactly: the
// float64 estimate is within one of the true root and is corrected in
// uint64, so the squares cannot overflow and inputs beyond 2^52, where the
// float round-trip alone loses integer precision, stay exact.
func FloorSqrt(n int) int {
	if n < 0 {
		panic("zorder: FloorSqrt of negative value")
	}
	un := uint64(n)
	r := uint64(math.Sqrt(float64(n)))
	for r > 0 && r*r > un {
		r--
	}
	for (r+1)*(r+1) <= un {
		r++
	}
	return int(r)
}

// Sqrt returns the integer square root of a perfect square n, panicking if n
// is not a perfect square. Grid algorithms use it to recover the side length
// of a subgrid holding n elements.
func Sqrt(n int) int {
	r := FloorSqrt(n)
	if r*r != n {
		panic("zorder: Sqrt of non-square value")
	}
	return r
}
