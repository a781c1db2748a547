package order

import (
	"math"
	"testing"
)

func TestComparators(t *testing.T) {
	if !Float64(1.0, 2.0) || Float64(2.0, 1.0) || Float64(1.0, 1.0) {
		t.Error("Float64 comparator wrong")
	}
	if !Int64(int64(1), int64(2)) || Int64(int64(2), int64(2)) {
		t.Error("Int64 comparator wrong")
	}
	if !Int(1, 2) || Int(3, 2) {
		t.Error("Int comparator wrong")
	}
}

func TestReverse(t *testing.T) {
	desc := Reverse(Float64)
	if !desc(2.0, 1.0) || desc(1.0, 2.0) || desc(1.0, 1.0) {
		t.Error("Reverse comparator wrong")
	}
}

func TestKVLess(t *testing.T) {
	a := KV{Key: 1, Seq: 5}
	b := KV{Key: 2, Seq: 0}
	c := KV{Key: 1, Seq: 6}
	if !KVLess(a, b) || KVLess(b, a) {
		t.Error("KVLess key ordering wrong")
	}
	if !KVLess(a, c) || KVLess(c, a) {
		t.Error("KVLess seq tie-break wrong")
	}
	if KVLess(a, a) {
		t.Error("KVLess not irreflexive")
	}
}

// TestFloat64IsStrictWeakWithNaN checks the NaN placement Float64 promises
// (first, as sort.Float64s puts it) and the strict weak ordering laws over
// values that include NaN, both zeros and both infinities.
func TestFloat64IsStrictWeakWithNaN(t *testing.T) {
	nan := math.NaN()
	if !Float64(nan, math.Inf(-1)) || Float64(math.Inf(-1), nan) || Float64(nan, nan) {
		t.Error("Float64 does not order NaN first")
	}
	if Float64(math.Copysign(0, -1), 0.0) || Float64(0.0, math.Copysign(0, -1)) {
		t.Error("Float64 separates -0 from +0")
	}
	vals := []float64{nan, math.Inf(-1), -1, math.Copysign(0, -1), 0, 1, math.Inf(1), nan}
	equiv := func(a, b float64) bool { return !Float64(a, b) && !Float64(b, a) }
	for _, a := range vals {
		if Float64(a, a) {
			t.Errorf("Float64(%v, %v) holds", a, a)
		}
		for _, b := range vals {
			for _, c := range vals {
				if Float64(a, b) && Float64(b, c) && !Float64(a, c) {
					t.Errorf("Float64 is not transitive on %v < %v < %v", a, b, c)
				}
				if equiv(a, b) && equiv(b, c) && !equiv(a, c) {
					t.Errorf("incomparability is not transitive on %v ~ %v ~ %v", a, b, c)
				}
			}
		}
	}
}
