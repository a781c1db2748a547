package fabric

// The four outgoing directed links of a PE, in the order Load reports them.
const (
	east = iota
	west
	south
	north
)

// Link loads use 16x16 tiles: each tile holds a dense array of the four
// outgoing directed links of its 256 PEs, and a one-entry tile cache
// exploits the hop-by-hop locality of a walk, so the per-hop cost is an
// index computation rather than a map probe on a (coordinate, direction)
// key. Arithmetic shift and two's-complement masking keep the key and index
// math correct for negative coordinates.
const (
	tileShift = 4
	tileSide  = 1 << tileShift
	tileMask  = tileSide - 1
)

type linkTile [tileSide * tileSide * 4]int64

// Links counts traversals per directed link of the messages walked through
// it. The zero value is empty and ready to use.
type Links struct {
	tiles   map[Coord]*linkTile
	lastKey Coord
	last    *linkTile
	peak    int64
}

// Peak returns the highest traversal count over all directed links.
func (l *Links) Peak() int64 { return l.peak }

// Total returns the sum of all traversal counts: the summed length of every
// walk, which is the energy of the messages walked.
func (l *Links) Total() int64 {
	var total int64
	for _, t := range l.tiles {
		for _, v := range t {
			total += v
		}
	}
	return total
}

// Reset clears every count, keeping the tiles for reuse.
func (l *Links) Reset() {
	for _, t := range l.tiles {
		*t = linkTile{}
	}
	l.peak = 0
}

// Load returns the traversal counts of the four outgoing links of c,
// in east, west, south, north order.
func (l *Links) Load(c Coord) (load [4]int64) {
	if t := l.tiles[Coord{c.Row >> tileShift, c.Col >> tileShift}]; t != nil {
		i := (c.Row&tileMask)<<tileShift | c.Col&tileMask
		copy(load[:], t[i<<2:i<<2+4])
	}
	return load
}

// Each calls fn, in no particular order, for every PE with at least one
// traversed outgoing link.
func (l *Links) Each(fn func(c Coord, load [4]int64)) {
	for k, t := range l.tiles {
		for i := 0; i < tileSide*tileSide; i++ {
			load := [4]int64(t[i<<2 : i<<2+4])
			if load != [4]int64{} {
				fn(Coord{k.Row<<tileShift | i>>tileShift, k.Col<<tileShift | i&tileMask}, load)
			}
		}
	}
}

// bump increments the load of the directed link leaving at in direction d.
func (l *Links) bump(at Coord, d int) {
	k := Coord{at.Row >> tileShift, at.Col >> tileShift}
	t := l.last
	if t == nil || l.lastKey != k {
		if l.tiles == nil {
			l.tiles = make(map[Coord]*linkTile)
		}
		var ok bool
		t, ok = l.tiles[k]
		if !ok {
			t = &linkTile{}
			l.tiles[k] = t
		}
		l.lastKey, l.last = k, t
	}
	i := ((at.Row&tileMask)<<tileShift|at.Col&tileMask)<<2 | d
	t[i]++
	if t[i] > l.peak {
		l.peak = t[i]
	}
}

// Walk routes one message between the homes p and q of fabric f (as Fold
// returns them) along the dimension-ordered path a mesh NoC would use:
// columns first, then rows, bumping the outgoing link of every PE it
// leaves. On a torus each axis goes the shorter way around its ring (east
// or south on a tie), wrapping at the fabric edges. Every walk bumps
// exactly the message's fabric distance in links.
func (l *Links) Walk(f Fabric, p, q Coord) {
	if f.Torus {
		l.walkTorus(p, q, f.W, f.H)
		return
	}
	cur := p
	for cur.Col < q.Col {
		l.bump(cur, east)
		cur.Col++
	}
	for cur.Col > q.Col {
		l.bump(cur, west)
		cur.Col--
	}
	for cur.Row < q.Row {
		l.bump(cur, south)
		cur.Row++
	}
	for cur.Row > q.Row {
		l.bump(cur, north)
		cur.Row--
	}
}

func (l *Links) walkTorus(p, q Coord, w, h int) {
	cur := p
	e := (q.Col - cur.Col) % w
	if e < 0 {
		e += w
	}
	if e <= w-e {
		for i := 0; i < e; i++ {
			l.bump(cur, east)
			cur.Col = (cur.Col + 1) % w
		}
	} else {
		for i := 0; i < w-e; i++ {
			l.bump(cur, west)
			cur.Col = (cur.Col - 1 + w) % w
		}
	}
	s := (q.Row - cur.Row) % h
	if s < 0 {
		s += h
	}
	if s <= h-s {
		for i := 0; i < s; i++ {
			l.bump(cur, south)
			cur.Row = (cur.Row + 1) % h
		}
	} else {
		for i := 0; i < h-s; i++ {
			l.bump(cur, north)
			cur.Row = (cur.Row - 1 + h) % h
		}
	}
}
