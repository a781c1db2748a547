package fabric

import (
	"math"
	"math/rand"
	"testing"
)

// naiveFold folds one axis the long way: floor division in floating point
// finds the pane, and the offset inside it is split into blocks.
func naiveFold(v, size, block int) int {
	span := size * block
	pane := int(math.Floor(float64(v) / float64(span)))
	return (v - pane*span) / block
}

func TestFold(t *testing.T) {
	if got := (Fabric{}).Fold(Coord{-7, 12}); got != (Coord{-7, 12}) {
		t.Errorf("unbounded Fold = %v, want the coordinate itself", got)
	}
	for _, f := range []Fabric{{W: 5, H: 3, Block: 1}, {W: 5, H: 3, Block: 3}, {W: 4, H: 4, Block: 3, Torus: true}} {
		for row := -40; row <= 40; row++ {
			for col := -40; col <= 40; col++ {
				got := f.Fold(Coord{row, col})
				want := Coord{naiveFold(row, f.H, f.Block), naiveFold(col, f.W, f.Block)}
				if got != want {
					t.Fatalf("%+v: Fold(%d,%d) = %v, want %v", f, row, col, got, want)
				}
				if got.Row < 0 || got.Row >= f.H || got.Col < 0 || got.Col >= f.W {
					t.Fatalf("%+v: Fold(%d,%d) = %v is off the fabric", f, row, col, got)
				}
			}
		}
	}
}

func TestCheck(t *testing.T) {
	for _, c := range []struct {
		f  Fabric
		ok bool
	}{
		{Fabric{W: 1, H: 1, Block: 1}, true},
		{Fabric{W: 4, H: 2, Block: MaxSpan / 4}, true}, // span exactly MaxSpan
		{Fabric{W: 2, H: 4, Block: MaxSpan / 4}, true},
		{Fabric{W: 4, H: 2, Block: MaxSpan/4 + 1}, false},
		{Fabric{W: 2, H: 4, Block: MaxSpan/4 + 1}, false},
		{Fabric{W: 1, H: 1, Block: math.MaxInt}, false},
		{Fabric{W: 0, H: 3, Block: 1}, false},
		{Fabric{W: 3, H: 0, Block: 1}, false},
		{Fabric{W: -2, H: 3, Block: 1}, false},
		{Fabric{W: 3, H: -2, Block: 1}, false},
	} {
		if err := c.f.Check(); (err == nil) != c.ok {
			t.Errorf("%+v: Check() = %v, want ok=%v", c.f, err, c.ok)
		}
	}
}

// hop is one link traversal: the PE a message leaves and its direction.
type hop struct {
	at  Coord
	dir int
}

// axisSteps returns the direction and length of the move from a to b along
// one axis: on a ring of size n (n > 0) it counts the steps each way around
// one at a time and takes the shorter, the positive way on a tie; on an
// open axis (n == 0) it is the straight move.
func axisSteps(a, b, n, pos, neg int) (dir, steps int) {
	if n == 0 {
		if b >= a {
			return pos, b - a
		}
		return neg, a - b
	}
	up, down := 0, 0
	for (a+up)%n != b {
		up++
	}
	for ((a-down)%n+n)%n != b {
		down++
	}
	if up <= down {
		return pos, up
	}
	return neg, down
}

// bruteHops lists the hops of the dimension-ordered walk from p to q:
// columns first, then rows, wrapping at the fabric edges on a torus.
func bruteHops(f Fabric, p, q Coord) []hop {
	w, h := 0, 0
	if f.Torus {
		w, h = f.W, f.H
	}
	wrap := func(v, n int) int {
		if n == 0 {
			return v
		}
		return ((v % n) + n) % n
	}
	var hops []hop
	cur := p
	dir, steps := axisSteps(p.Col, q.Col, w, east, west)
	for i := 0; i < steps; i++ {
		hops = append(hops, hop{cur, dir})
		if dir == east {
			cur.Col = wrap(cur.Col+1, w)
		} else {
			cur.Col = wrap(cur.Col-1, w)
		}
	}
	dir, steps = axisSteps(p.Row, q.Row, h, south, north)
	for i := 0; i < steps; i++ {
		hops = append(hops, hop{cur, dir})
		if dir == south {
			cur.Row = wrap(cur.Row+1, h)
		} else {
			cur.Row = wrap(cur.Row-1, h)
		}
	}
	if cur != q {
		panic("bruteHops: walk missed its destination")
	}
	return hops
}

// fabricDist is the fabric distance between two homes: Manhattan on a mesh,
// the shorter way around each ring on a torus.
func fabricDist(f Fabric, p, q Coord) int64 {
	axis := func(a, b, n int) int64 {
		d := a - b
		if d < 0 {
			d = -d
		}
		if f.Torus && n-d < d {
			d = n - d
		}
		return int64(d)
	}
	return axis(p.Row, q.Row, f.H) + axis(p.Col, q.Col, f.W)
}

func TestWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, f := range []Fabric{
		{},                                  // the unbounded grid, negative coordinates included
		{W: 7, H: 5, Block: 1},              // mesh
		{W: 6, H: 4, Block: 2, Torus: true}, // even sides: ties exist
		{W: 5, H: 7, Block: 1, Torus: true}, // odd sides
	} {
		for trial := 0; trial < 200; trial++ {
			pick := func() Coord {
				if f.W == 0 {
					return Coord{rng.Intn(41) - 20, rng.Intn(41) - 20}
				}
				return Coord{rng.Intn(f.H), rng.Intn(f.W)}
			}
			p, q := pick(), pick()
			var l Links
			l.Walk(f, p, q)
			want := map[Coord][4]int64{}
			for _, hp := range bruteHops(f, p, q) {
				load := want[hp.at]
				load[hp.dir]++
				want[hp.at] = load
			}
			got := map[Coord][4]int64{}
			l.Each(func(c Coord, load [4]int64) { got[c] = load })
			if len(got) != len(want) {
				t.Fatalf("%+v %v->%v: %d PEs with traffic, want %d (%v vs %v)", f, p, q, len(got), len(want), got, want)
			}
			for c, load := range want {
				if got[c] != load {
					t.Fatalf("%+v %v->%v: links of %v = %v, want %v", f, p, q, c, got[c], load)
				}
			}
			if d := fabricDist(f, p, q); l.Total() != d {
				t.Fatalf("%+v %v->%v: %d traversals, want the fabric distance %d", f, p, q, l.Total(), d)
			}
		}
	}
}

func TestWalkTorusTies(t *testing.T) {
	f := Fabric{W: 4, H: 6, Block: 1, Torus: true}
	var l Links
	l.Walk(f, Coord{0, 0}, Coord{3, 2}) // two columns either way, three rows either way
	if got := l.Load(Coord{0, 0}); got != [4]int64{east: 1} {
		t.Errorf("tie at the start: links %v, want one east", got)
	}
	if got := l.Load(Coord{0, 2}); got != [4]int64{south: 1} {
		t.Errorf("row tie: links %v, want one south", got)
	}
}

func TestLinksAccessorsAgree(t *testing.T) {
	f := Fabric{W: 40, H: 36, Block: 1, Torus: true}
	rng := rand.New(rand.NewSource(2))
	var l Links
	if l.Total() != 0 || l.Peak() != 0 || l.Load(Coord{3, 3}) != ([4]int64{}) {
		t.Fatal("zero Links is not empty")
	}
	fill := func() int64 {
		var dist int64
		for i := 0; i < 300; i++ {
			p := Coord{rng.Intn(f.H), rng.Intn(f.W)}
			q := Coord{rng.Intn(f.H), rng.Intn(f.W)}
			l.Walk(f, p, q)
			dist += fabricDist(f, p, q)
		}
		return dist
	}
	for round := 0; round < 2; round++ {
		dist := fill()
		var sum, peak int64
		seen := 0
		l.Each(func(c Coord, load [4]int64) {
			seen++
			if l.Load(c) != load {
				t.Fatalf("Load(%v) = %v, Each reports %v", c, l.Load(c), load)
			}
			for _, v := range load {
				sum += v
				peak = max(peak, v)
			}
		})
		if seen == 0 || sum != l.Total() || sum != dist {
			t.Fatalf("round %d: Each sums to %d over %d PEs, Total %d, walked distance %d", round, sum, seen, l.Total(), dist)
		}
		if peak != l.Peak() {
			t.Fatalf("round %d: Each peak %d, Peak %d", round, peak, l.Peak())
		}
		if got := l.Load(Coord{-5, 100}); got != ([4]int64{}) {
			t.Fatalf("Load off the fabric = %v, want zero", got)
		}
		l.Reset()
		l.Each(func(c Coord, load [4]int64) { t.Fatalf("Each after Reset visits %v %v", c, load) })
		if l.Total() != 0 || l.Peak() != 0 {
			t.Fatalf("after Reset: Total %d, Peak %d", l.Total(), l.Peak())
		}
	}
}
