package machine

import "sync"

// Shard-parallel round execution.
//
// The model makes every message of a parallel round causally independent: a
// send reads its sender's clock as of the start of the round and never
// advances it, so charging the messages of one round commutes, and the only
// cross-message interaction is at the receivers — clock merges (max), the
// energy/message sums, the depth/distance maxima, and register overwrites in
// issue order. All of those are either associative-commutative reductions or
// are confined to a single destination PE. Sharding exploits exactly that
// structure:
//
//   - a sequential grouping pass resolves every sender and receiver PE (the
//     only step that mutates the tile map, the tile cache and the touched-PE
//     accounting) and buckets messages by destination tile;
//   - the charge pass splits the round into contiguous chunks, each chunk
//     accumulating energy/messages/max-depth/max-distance into shard-local
//     counters merged deterministically at the barrier;
//   - the delivery pass runs one goroutine per shard; all deliveries to a
//     given tile land in the same shard, so clock merges, register writes and
//     the per-tile touch counters stay single-writer, while per-shard peak
//     memory, Independent journals and memory-limit violations are merged
//     after the join.
//
// Because integer sums and maxima are exact and per-PE delivery order is
// preserved inside a shard, the resulting counters, clocks and registers are
// byte-identical to the sequential engine for every shard count. When a
// trace sink or congestion tracking is attached the charge pass stays
// sequential (events must stream in issue order with cumulative counters;
// link loads share one map), and only delivery is parallelized.

// defaultShardMin is the smallest round (in messages) worth forking for.
// Below it, the fork/join overhead of a handful of goroutines exceeds the
// round's sequential cost.
const defaultShardMin = 2048

// SetShards sets the number of shards rounds are partitioned into. k <= 1
// restores sequential execution. The setting survives Reset, so pooled
// machines keep their shard count across sweep points. Sharding changes no
// observable output — counters, clocks, registers and trace streams are
// byte-identical for every k — only wall-clock time.
func (m *Machine) SetShards(k int) {
	if k < 1 {
		k = 1
	}
	m.shards = k
}

// Shards returns the configured shard count (at least 1).
func (m *Machine) Shards() int {
	if m.shards < 1 {
		return 1
	}
	return m.shards
}

// shardTouch is a shard-local deferred noteTouch: the receiver PE with the
// clock it had before this round's first merge, plus the Independent
// generation that had last journaled it. After the join the entry is
// distributed into the journals of every active branch newer than seen.
type shardTouch struct {
	c    Coord
	p    *pe
	pre  clock
	seen uint64
}

// chargeAccum holds the counters of messages charged off the machine: one
// charge chunk's shard-local counters, or a Wires kernel's.
type chargeAccum struct {
	energy   int64
	messages int64
	maxDepth int64
	maxDist  int64
}

// addCharge adds the counters of a chargeAccum to the machine's.
func (m *Machine) addCharge(a chargeAccum) {
	m.energy += a.energy
	m.messages += a.messages
	m.maxDepth = max(m.maxDepth, a.maxDepth)
	m.maxDist = max(m.maxDist, a.maxDist)
}

// shardViolation records the earliest memory-limit violation seen by one
// delivery shard (idx is the message's issue index, for picking the globally
// first violation deterministically).
type shardViolation struct {
	idx int32
	err MemoryLimitError
}

// shardScratch holds the reusable buffers of the sharded executor.
type shardScratch struct {
	srcs, dsts []*pe
	buckets    [][]int32
	charges    []chargeAccum
	journals   [][]shardTouch
	peaks      []int
	viols      []shardViolation
}

func (s *shardScratch) size(n, k int) {
	if cap(s.srcs) < n {
		s.srcs = make([]*pe, n)
		s.dsts = make([]*pe, n)
	}
	s.srcs = s.srcs[:n]
	s.dsts = s.dsts[:n]
	for len(s.buckets) < k {
		s.buckets = append(s.buckets, nil)
	}
	for i := 0; i < k; i++ {
		s.buckets[i] = s.buckets[i][:0]
	}
	if cap(s.charges) < k {
		s.charges = make([]chargeAccum, k)
		s.journals = make([][]shardTouch, k)
		s.peaks = make([]int, k)
		s.viols = make([]shardViolation, k)
	}
	s.charges = s.charges[:k]
	s.journals = s.journals[:k]
	s.peaks = s.peaks[:k]
	s.viols = s.viols[:k]
}

// shardOf maps a destination tile to a shard with a splitmix-style hash so
// that row-, column- and block-shaped traffic all spread across shards.
func shardOf(k Coord, n int) int {
	x := uint64(int64(k.Row))*0x9E3779B97F4A7C15 + uint64(int64(k.Col))*0xC2B2AE3D27D4EB4F
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 29
	return int(x % uint64(n))
}

// processSharded executes one recorded round across m.shards shards. See the
// package comment above for the phase structure and the commutation argument.
func (m *Machine) processSharded(msgs []bmsg) {
	k := m.shards
	s := &m.sh
	s.size(len(msgs), k)

	// Grouping pass: resolve PEs (single-threaded — this is the only phase
	// that may create tiles, move the tile cache or flip touched bits) and
	// bucket deliveries by destination tile.
	for i := range msgs {
		g := &msgs[i]
		if g.from != g.to {
			s.srcs[i] = m.peAt(g.from)
		} else {
			s.srcs[i] = nil
		}
		s.dsts[i] = m.peAt(g.to)
		b := shardOf(tileKey(g.to), k)
		s.buckets[b] = append(s.buckets[b], int32(i))
	}

	// Charge pass. No clock mutates until delivery, so sender clocks read
	// here are start-of-round values regardless of chunk interleaving.
	if m.sink != nil || m.cong != nil {
		// Events must stream in issue order with exact cumulative counters,
		// and congestion shares one link-load map: charge sequentially.
		m.chargeResolved(msgs)
	} else {
		var wg sync.WaitGroup
		chunk := (len(msgs) + k - 1) / k
		for w := 0; w < k; w++ {
			lo := w * chunk
			hi := min(lo+chunk, len(msgs))
			if lo >= hi {
				s.charges[w] = chargeAccum{}
				continue
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				s.charges[w] = chargeChunk(msgs[lo:hi], s.srcs[lo:hi], m.bk)
			}(w, lo, hi)
		}
		wg.Wait()
		for w := 0; w < k; w++ {
			m.addCharge(s.charges[w])
		}
	}

	// Delivery pass: one goroutine per shard; every delivery to a given tile
	// is in exactly one shard, in issue order.
	var top uint64
	if n := len(m.indepGens); n > 0 {
		top = m.indepGens[n-1]
	}
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		if len(s.buckets[w]) == 0 {
			s.peaks[w] = 0
			s.journals[w] = s.journals[w][:0]
			s.viols[w] = shardViolation{idx: -1}
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m.deliverShard(msgs, s.buckets[w], top, w)
		}(w)
	}
	wg.Wait()

	// Join: merge shard-local peaks, distribute deferred touches into the
	// active Independent journals, and surface the earliest memory-limit
	// violation (same message the sequential engine would have panicked on).
	for w := 0; w < k; w++ {
		if s.peaks[w] > m.peakMem {
			m.peakMem = s.peaks[w]
		}
	}
	if top != 0 {
		for w := 0; w < k; w++ {
			for _, e := range s.journals[w] {
				for i := len(m.indepGens) - 1; i >= 0 && m.indepGens[i] > e.seen; i-- {
					m.indepLogs[i] = append(m.indepLogs[i], indepEntry{c: e.c, p: e.p, pre: e.pre})
				}
			}
			s.journals[w] = s.journals[w][:0]
		}
	}
	if m.memLimit > 0 {
		first := shardViolation{idx: -1}
		for w := 0; w < k; w++ {
			if v := s.viols[w]; v.idx >= 0 && (first.idx < 0 || v.idx < first.idx) {
				first = v
			}
		}
		if first.idx >= 0 {
			panic(first.err)
		}
	}
}

// chargeResolved is chargeRound over pre-resolved sender PEs: the sequential
// charge pass of a sharded round when a sink or congestion tracking forces
// in-order event emission.
func (m *Machine) chargeResolved(msgs []bmsg) {
	for i := range msgs {
		g := &msgs[i]
		src := m.sh.srcs[i]
		if src == nil { // self-send: free local computation
			g.depth, g.dist = 0, 0
			continue
		}
		d := m.dist(g.from, g.to)
		m.energy += d
		m.messages++
		if m.cong != nil {
			m.cong.route(m.bk, g.from, g.to)
		}
		g.depth = src.clk.depth + 1
		g.dist = src.clk.dist + d
		if g.depth > m.maxDepth {
			m.maxDepth = g.depth
		}
		if g.dist > m.maxDist {
			m.maxDist = g.dist
		}
		if m.sink != nil {
			m.emit(g.from, g.to, d, g.v, g.depth, g.dist)
		}
	}
}

// chargeChunk charges one contiguous chunk of the round into local counters.
// It only reads sender clocks (and the immutable backend value) and writes
// the chunk's own messages, so chunks are data-race free by construction.
func chargeChunk(msgs []bmsg, srcs []*pe, bk Backend) chargeAccum {
	var a chargeAccum
	for i := range msgs {
		g := &msgs[i]
		src := srcs[i]
		if src == nil {
			g.depth, g.dist = 0, 0
			continue
		}
		d := bk.Dist(g.from, g.to)
		a.energy += d
		a.messages++
		g.depth = src.clk.depth + 1
		g.dist = src.clk.dist + d
		if g.depth > a.maxDepth {
			a.maxDepth = g.depth
		}
		if g.dist > a.maxDist {
			a.maxDist = g.dist
		}
	}
	return a
}

// deliverShard applies one shard's deliveries in issue order: clock merges,
// register writes, per-PE and shard-local memory peaks, and deferred
// Independent journaling. All receiver PEs of the shard live in tiles owned
// exclusively by this shard for the duration of the round.
func (m *Machine) deliverShard(msgs []bmsg, idxs []int32, top uint64, w int) {
	s := &m.sh
	journal := s.journals[w][:0]
	peak := 0
	viol := shardViolation{idx: -1}
	for _, i := range idxs {
		g := &msgs[i]
		p := s.dsts[i]
		if top != 0 && p.indepSeen < top {
			journal = append(journal, shardTouch{c: g.to, p: p, pre: p.clk, seen: p.indepSeen})
			p.indepSeen = top
		}
		p.clk.merge(g.depth, g.dist)
		if g.dst != countReg {
			// No physGrow here: rounds that deliver registers under a
			// finite backend never reach the sharded path (see shardSafe).
			p.set(g.dst, g.v)
			n := len(p.regs)
			if n > p.peakReg {
				p.peakReg = n
			}
			if n > peak {
				peak = n
			}
			if m.memLimit > 0 && n > m.memLimit && viol.idx < 0 {
				viol = shardViolation{idx: i, err: MemoryLimitError{PE: g.to, Registers: n, Limit: m.memLimit}}
			}
		}
	}
	s.journals[w] = journal
	s.peaks[w] = peak
	s.viols[w] = viol
}
