package sortnet

import "testing"

// setLaneMin sets the fewest comparators worth a lane (laneMin) until
// test t ends, so that the test's small networks run on lanes too.
func setLaneMin(t *testing.T, n int) {
	old := laneMin
	laneMin = n
	t.Cleanup(func() { laneMin = old })
}
