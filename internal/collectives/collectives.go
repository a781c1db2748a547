// Package collectives implements the communication collectives of Section IV
// of the paper on the Spatial Computer Model: broadcast without multicasting,
// low-depth reduce, the energy-optimal Z-order parallel scan, and segmented
// variants, together with the naive baselines the paper compares against
// (binary-tree broadcast/reduce/scan over a 1-D layout, sequential scan).
//
// Broadcast and Reduce send along one shared message tree (pattern), which
// BroadcastPattern and ReducePattern expose to callers that keep their
// payloads host-side. Scan, ScanTrack and their segmented forms have a
// counting form (scanHost), taken when the machine reports CountingOnly:
// the same messages are charged on the machine's Wires kernel and the
// prefixes are computed on the host.
package collectives

import (
	"repro/internal/machine"
)

// Op is a binary operator combining two values. Scan requires associativity;
// Reduce additionally requires commutativity when the array order differs
// from the reduction order (the paper's reduce takes inputs "stored in
// arbitrary order").
type Op func(a, b machine.Value) machine.Value

// Add is the float64 addition operator.
func Add(a, b machine.Value) machine.Value { return a.(float64) + b.(float64) }

// AddInt is the int64 addition operator.
func AddInt(a, b machine.Value) machine.Value { return a.(int64) + b.(int64) }

// MaxFloat returns the larger of two float64 values.
func MaxFloat(a, b machine.Value) machine.Value {
	if a.(float64) >= b.(float64) {
		return a
	}
	return b
}

// MinFloat returns the smaller of two float64 values.
func MinFloat(a, b machine.Value) machine.Value {
	if a.(float64) <= b.(float64) {
		return a
	}
	return b
}

// First returns its left argument. It is associative and turns a segmented
// scan into a segmented broadcast (every element of a segment receives the
// segment's first value).
func First(a, b machine.Value) machine.Value { return a }
