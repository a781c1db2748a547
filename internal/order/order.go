// Package order defines comparison functions shared by the sorting,
// selection and sparse-algebra packages.
package order

import (
	"cmp"

	"repro/internal/machine"
)

// Less is a strict weak ordering on element values: irreflexive,
// transitive, and with incomparability (neither a < b nor b < a)
// transitive too, so the values fall into ordered classes of equal
// elements. The sorts rely on it: a relation that is not one (a bare `<`
// on floats that may be NaN) leaves their output unsorted, and the
// counting-only sorting networks replace each value by the rank of its
// class, which only a strict weak ordering defines.
type Less func(a, b machine.Value) bool

// Float64 orders float64 values ascending, with NaN before every number
// (as cmp.Compare and sort.Float64s do); -0 and +0 are equal.
func Float64(a, b machine.Value) bool { return cmp.Less(a.(float64), b.(float64)) }

// Int64 orders int64 values ascending.
func Int64(a, b machine.Value) bool { return a.(int64) < b.(int64) }

// Int orders int values ascending.
func Int(a, b machine.Value) bool { return a.(int) < b.(int) }

// Reverse returns the opposite ordering. The randomized rank selection uses
// it to "reverse the order of the elements (logically, that is, by
// henceforth flipping the result of the comparator)" (Section VI, step 7).
func Reverse(less Less) Less {
	return func(a, b machine.Value) bool { return less(b, a) }
}

// KV is a key-value pair ordered by key; ties are broken by a sequence
// number so that sorts of KV values are effectively stable. The PRAM
// simulation and SpMV sort (key, payload) tuples.
type KV struct {
	Key int64
	Seq int64
	Val machine.Value
}

// KVLess orders KV pairs by (Key, Seq).
func KVLess(a, b machine.Value) bool {
	x, y := a.(KV), b.(KV)
	if x.Key != y.Key {
		return x.Key < y.Key
	}
	return x.Seq < y.Seq
}
