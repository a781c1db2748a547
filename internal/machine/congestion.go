package machine

// Congestion tracking. The model's energy metric is the *total* load on
// the communication network; for architects the complementary quantity is
// the *maximum* load on any single mesh link. This opt-in tracker routes
// every message along the dimension-ordered (X-then-Y) path a mesh NoC
// would use and counts traversals per directed link. It is an extension
// beyond the paper's metrics, used by the congestion experiment and the
// visualization tool; tracking costs O(distance) bookkeeping per message,
// so it is off by default.
//
// Link loads use the same 16x16 tiling as the PE grid: each tile holds a
// dense array of the four outgoing directed links of its 256 PEs, and a
// one-entry tile cache exploits the hop-by-hop locality of XY walks, so
// the per-hop cost is an index computation rather than a map probe on a
// (coordinate, direction) key.

// linkDir identifies the four mesh directions.
type linkDir uint8

const (
	linkEast linkDir = iota
	linkWest
	linkSouth
	linkNorth
)

// congTile holds the traversal counts of the 4 outgoing directed links of
// each PE in one 16x16 tile.
type congTile struct {
	load [tileSide * tileSide * 4]int64
}

// congestion holds per-link traversal counts.
type congestion struct {
	tiles   map[Coord]*congTile
	lastKey Coord
	last    *congTile
	peak    int64
}

// EnableCongestionTracking starts counting per-link traffic under
// dimension-ordered (column-first, then row) routing. Call before running
// the algorithm of interest.
func (m *Machine) EnableCongestionTracking() {
	m.cong = &congestion{tiles: make(map[Coord]*congTile)}
}

// DisableCongestionTracking stops per-link accounting and discards the
// recorded loads. Machine pools use it to hand a machine leased for a
// congestion sweep back to ordinary (tracking-free) service.
func (m *Machine) DisableCongestionTracking() { m.cong = nil }

// MaxCongestion returns the highest traversal count over all directed mesh
// links, or 0 if tracking is disabled.
func (m *Machine) MaxCongestion() int64 {
	if m.cong == nil {
		return 0
	}
	return m.cong.peak
}

// TotalLinkTraversals returns the sum of link traversals — with XY routing
// this equals the energy, which tests use as a consistency check.
func (m *Machine) TotalLinkTraversals() int64 {
	if m.cong == nil {
		return 0
	}
	var total int64
	for _, t := range m.cong.tiles {
		for _, v := range t.load {
			total += v
		}
	}
	return total
}

// reset clears all link loads while keeping tracking enabled. Tiles are
// zeroed in place so a Reset machine reuses their allocations.
func (c *congestion) reset() {
	for _, t := range c.tiles {
		t.load = [tileSide * tileSide * 4]int64{}
	}
	c.peak = 0
}

// bump increments the load of the directed link leaving at in direction d.
func (c *congestion) bump(at Coord, d linkDir) {
	k := tileKey(at)
	t := c.last
	if t == nil || c.lastKey != k {
		var ok bool
		t, ok = c.tiles[k]
		if !ok {
			t = &congTile{}
			c.tiles[k] = t
		}
		c.lastKey, c.last = k, t
	}
	i := tileIndex(at)<<2 | int(d)
	t.load[i]++
	if t.load[i] > c.peak {
		c.peak = t.load[i]
	}
}

// route walks one message under the given backend: the virtual XY path
// under Ideal, the XY path between the physical homes on a mesh, and the
// wrap-aware shortest XY path on a torus. Under a finite backend the
// recorded link loads are therefore loads on *physical* fabric links, with
// coordinates in [0,H)×[0,W) — exactly what the heatmap of a real fabric
// shows — and TotalLinkTraversals still equals the energy, because every
// message bumps exactly its backend distance in links.
func (c *congestion) route(b Backend, from, to Coord) {
	c.routeHomes(b, b.Fold(from), b.Fold(to))
}

// routeHomes is route between two homes as Fold returns them.
func (c *congestion) routeHomes(b Backend, p, q Coord) {
	if b.Kind == BackendTorus {
		c.routeTorus(p, q, b.W, b.H)
		return
	}
	c.routeMessage(p, q)
}

// routeTorus walks the X-then-Y path on a W×H torus, taking the shorter
// way around each ring (east/south on a tie) and wrapping coordinates at
// the fabric edges.
func (c *congestion) routeTorus(a, b Coord, w, h int) {
	cur := a
	east := (b.Col - cur.Col) % w
	if east < 0 {
		east += w
	}
	if east <= w-east {
		for i := 0; i < east; i++ {
			c.bump(cur, linkEast)
			cur.Col = (cur.Col + 1) % w
		}
	} else {
		for i := 0; i < w-east; i++ {
			c.bump(cur, linkWest)
			cur.Col = (cur.Col - 1 + w) % w
		}
	}
	south := (b.Row - cur.Row) % h
	if south < 0 {
		south += h
	}
	if south <= h-south {
		for i := 0; i < south; i++ {
			c.bump(cur, linkSouth)
			cur.Row = (cur.Row + 1) % h
		}
	} else {
		for i := 0; i < h-south; i++ {
			c.bump(cur, linkNorth)
			cur.Row = (cur.Row - 1 + h) % h
		}
	}
}

// routeMessage walks the X-then-Y path from a to b, bumping link loads.
func (c *congestion) routeMessage(a, b Coord) {
	cur := a
	for cur.Col < b.Col {
		c.bump(cur, linkEast)
		cur.Col++
	}
	for cur.Col > b.Col {
		c.bump(cur, linkWest)
		cur.Col--
	}
	for cur.Row < b.Row {
		c.bump(cur, linkSouth)
		cur.Row++
	}
	for cur.Row > b.Row {
		c.bump(cur, linkNorth)
		cur.Row--
	}
}
