package machine

import "sync"

// Shard-parallel round delivery.
//
// The model makes every message of a parallel round causally independent: a
// send reads its sender's clock as of the start of the round and never
// advances it, and Par charges each message as it is issued, before any of
// the round is delivered. What is left when the callback returns is the
// delivery, whose only cross-message interactions are at the receivers —
// clock merges (max), register overwrites in issue order, and the memory
// peak — all confined to a single destination PE or reduced by max.
// Sharding splits exactly that pass:
//
//   - a sequential grouping pass resolves every receiver PE (the only step
//     that mutates the tile map, the tile cache and the touched-PE
//     accounting) and buckets messages by destination tile;
//   - the delivery pass runs one goroutine per shard; all deliveries to a
//     given tile land in the same shard, so clock merges, register writes and
//     the per-tile touch counters stay single-writer, while per-shard peak
//     memory, Independent journals and memory-limit violations are merged
//     after the join.
//
// Because per-PE delivery order is preserved inside a shard and the merged
// quantities are maxima, the resulting clocks, registers and counters are
// byte-identical to the sequential delivery for every shard count.

// defaultShardMin is the smallest round (in messages) worth forking for.
// Below it, the fork/join overhead of a handful of goroutines exceeds the
// round's sequential delivery.
const defaultShardMin = 2048

// SetShards sets the number of shards the delivery of large Par rounds is
// partitioned into, which is also how many lanes the counting kernel may
// charge from at once (Wires.Lanes). k <= 1 restores sequential delivery
// and a single-lane kernel. The setting survives Reset, so pooled machines
// keep their shard count across sweep points. Sharding changes no
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
	p    *pe
	pre  clock
	seen uint64
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
	dsts     []*pe
	buckets  [][]int32
	journals [][]shardTouch
	peaks    []int
	viols    []shardViolation
	wg       sync.WaitGroup
}

func (s *shardScratch) size(n, k int) {
	if cap(s.dsts) < n {
		s.dsts = make([]*pe, n)
	}
	s.dsts = s.dsts[:n]
	for len(s.buckets) < k {
		s.buckets = append(s.buckets, nil)
	}
	for i := 0; i < k; i++ {
		s.buckets[i] = s.buckets[i][:0]
	}
	if cap(s.journals) < k {
		s.journals = make([][]shardTouch, k)
		s.peaks = make([]int, k)
		s.viols = make([]shardViolation, k)
	}
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

// deliverSharded delivers one charged Par round across m.shards shards. See
// the comment above for the pass structure.
func (m *Machine) deliverSharded(msgs []roundMsg) {
	k := m.shards
	s := &m.sh
	s.size(len(msgs), k)

	// Grouping pass: resolve receivers (single-threaded — this is the only
	// phase that may create tiles, move the tile cache or flip touched bits)
	// and bucket deliveries by destination tile.
	for i := range msgs {
		to := msgs[i].to
		s.dsts[i] = m.peAt(to)
		b := shardOf(tileKey(to), k)
		s.buckets[b] = append(s.buckets[b], int32(i))
	}

	// Delivery pass: one goroutine per non-empty shard, the last of them
	// delivered on the calling goroutine; every delivery to a given tile is
	// in exactly one shard, in issue order.
	var top uint64
	if n := len(m.indepGens); n > 0 {
		top = m.indepGens[n-1]
	}
	last := -1
	for w := 0; w < k; w++ {
		if len(s.buckets[w]) == 0 {
			s.peaks[w] = 0
			s.journals[w] = s.journals[w][:0]
			s.viols[w] = shardViolation{idx: -1}
			continue
		}
		if last >= 0 {
			s.wg.Add(1)
			go m.deliverShardAsync(msgs, last, top)
		}
		last = w
	}
	m.deliverShard(msgs, s.buckets[last], top, last)
	s.wg.Wait()

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
					m.indepLogs[i] = append(m.indepLogs[i], indepEntry{p: e.p, pre: e.pre})
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

// deliverShardAsync is deliverShard for shard w on its own goroutine.
func (m *Machine) deliverShardAsync(msgs []roundMsg, w int, top uint64) {
	defer m.sh.wg.Done()
	m.deliverShard(msgs, m.sh.buckets[w], top, w)
}

// deliverShard applies one shard's deliveries in issue order: clock merges,
// register writes, per-PE and shard-local memory peaks, and deferred
// Independent journaling. All receiver PEs of the shard live in tiles owned
// exclusively by this shard for the duration of the round.
func (m *Machine) deliverShard(msgs []roundMsg, idxs []int32, top uint64, w int) {
	s := &m.sh
	journal := s.journals[w][:0]
	peak := 0
	viol := shardViolation{idx: -1}
	for _, i := range idxs {
		g := &msgs[i]
		p := s.dsts[i]
		if top != 0 && p.indepSeen < top {
			journal = append(journal, shardTouch{p: p, pre: p.clk, seen: p.indepSeen})
			p.indepSeen = top
		}
		p.clk.merge(g.clk.depth, g.clk.dist)
		// No physGrow here: finite backends never reach the sharded path
		// (see Par).
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
	s.journals[w] = journal
	s.peaks[w] = peak
	s.viols[w] = viol
}
