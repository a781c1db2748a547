package trace

import "sort"

// CriticalPath records the full event stream of a run and reconstructs,
// on demand, the dependent-message chains that realize the machine's Depth
// and Distance metrics.
//
// Reconstruction walks causality witnesses backwards: a message sent from
// PE x with DepthBefore = k was enabled by an earlier delivery to x whose
// chain depth was exactly k (the sender's clock is the running maximum of
// its deliveries, and parallel-round snapshots and independent-branch
// rollbacks only ever restore values previous deliveries established), so
// an exact-match predecessor always exists while k > 0. Each backward step
// decrements the chain depth by exactly one, which makes the returned
// depth path's length equal the final Depth metric and, symmetrically, the
// distance path's summed Dist equal the final Distance metric.
//
// The sink must observe the run from the start (a fresh or Reset machine);
// memory is O(messages). It is not safe for concurrent use — give each
// machine its own instance, or wrap in Synchronized.
type CriticalPath struct {
	blocks [][]Event // the events in send order, blockLen to a block
	n      int
}

// blockLen is the number of events per block. Blocks are allocated whole
// and never grow, so each event is copied once; a flat slice reallocated
// as it grew, which doubled the peak memory of a recorded run.
const blockLen = 1 << 10

// NewCriticalPath returns an empty critical-path recorder.
func NewCriticalPath() *CriticalPath { return &CriticalPath{} }

// Event records a copy of e.
func (c *CriticalPath) Event(e *Event) {
	if c.n%blockLen == 0 {
		c.blocks = append(c.blocks, make([]Event, 0, blockLen))
	}
	last := &c.blocks[len(c.blocks)-1]
	*last = append(*last, *e)
	c.n++
}

// Close is a no-op; the recorded events stay available.
func (c *CriticalPath) Close() error { return nil }

// at returns the i-th recorded event.
func (c *CriticalPath) at(i int) *Event { return &c.blocks[i/blockLen][i%blockLen] }

// pathKey identifies "a delivery to pe whose chain value was exactly v" —
// the causality witness a backward step looks up.
type pathKey struct {
	pe Coord
	v  int64
}

// DepthPath returns the chain of dependent messages realizing the depth
// metric: an ordered event slice whose length equals the machine's Depth
// and in which every event departs from the PE the previous one reached.
// It returns nil if no events were recorded.
func (c *CriticalPath) DepthPath() []Event {
	return c.path(
		func(e *Event) (before, after int64) { return e.DepthBefore, e.DepthAfter },
	)
}

// DistancePath returns the chain of dependent messages realizing the
// distance metric: an ordered event slice whose Dist fields sum to the
// machine's Distance. It returns nil if no events were recorded.
func (c *CriticalPath) DistancePath() []Event {
	return c.path(
		func(e *Event) (before, after int64) { return e.DistBefore, e.DistAfter },
	)
}

// path walks back from the event with the maximal after-value through
// exact-match predecessors (latest earlier delivery to the sender with the
// required chain value) until the chain value reaches zero, then reverses.
func (c *CriticalPath) path(chain func(*Event) (before, after int64)) []Event {
	if c.n == 0 {
		return nil
	}
	// Index: (receiver, chain value after delivery) -> event positions in
	// ascending order.
	idx := make(map[pathKey][]int, c.n)
	end := 0
	var endAfter int64
	for i := 0; i < c.n; i++ {
		e := c.at(i)
		_, after := chain(e)
		k := pathKey{e.To, after}
		idx[k] = append(idx[k], i)
		if after > endAfter {
			endAfter, end = after, i
		}
	}

	var rev []Event
	pos := end
	for {
		e := c.at(pos)
		rev = append(rev, *e)
		before, _ := chain(e)
		if before == 0 {
			break
		}
		ps := idx[pathKey{e.From, before}]
		// Largest recorded position strictly before pos; a witness always
		// exists (see the type comment), so a miss means the sink did not
		// observe the run from the start.
		j := sort.SearchInts(ps, pos)
		if j == 0 {
			break
		}
		pos = ps[j-1]
	}

	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
