package mapping

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/grid"
)

func TestStringParseRoundTrip(t *testing.T) {
	for _, m := range Space() {
		got, err := Parse(m.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", m.String(), err)
		}
		if got != m {
			t.Fatalf("round trip: %v -> %q -> %v", m, m.String(), got)
		}
	}
}

func TestParsePartialOverride(t *testing.T) {
	m, err := Parse("track=zorder,sort=merge")
	if err != nil {
		t.Fatal(err)
	}
	want := Default()
	want.Track = grid.TrackZOrder
	want.Sort = SortMerge
	if m != want {
		t.Fatalf("got %v, want %v", m, want)
	}
	if m, err := Parse(""); err != nil || m != Default() {
		t.Fatalf("Parse(\"\") = %v, %v; want Default", m, err)
	}
}

func TestParseRejectsUnknown(t *testing.T) {
	for _, s := range []string{"track=diagonal", "arity=3", "tile=round", "sort=bogo", "nonsense", "color=red"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceIsUniqueAndValid(t *testing.T) {
	space := Space()
	want := len(grid.TrackKinds()) * len(Arities()) * len(Tiles()) * len(SortAlgos())
	if len(space) != want {
		t.Fatalf("Space has %d points, want %d", len(space), want)
	}
	seen := map[string]bool{}
	for _, m := range space {
		if err := m.Validate(); err != nil {
			t.Errorf("%v: %v", m, err)
		}
		if seen[m.String()] {
			t.Errorf("duplicate %v", m)
		}
		seen[m.String()] = true
	}
}

// TestSortMappingsMatchesStringOrder pins SortMappings to the order of a
// plain sort by String() over the whole space, from a shuffled start.
func TestSortMappingsMatchesStringOrder(t *testing.T) {
	want := Space()
	sort.Slice(want, func(i, j int) bool { return want[i].String() < want[j].String() })
	got := Space()
	rand.New(rand.NewSource(1)).Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
	SortMappings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SortMappings order differs from a sort by String():\ngot  %v\nwant %v", got, want)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m := Mapping{Track: grid.TrackHilbert, Arity: 4, Tile: TileWide, Sort: SortShearsort}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var got Mapping
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("got %v, want %v", got, m)
	}
}

func TestRegionFor(t *testing.T) {
	cases := []struct {
		n    int
		tile Tile
		h, w int
		ok   bool
	}{
		{16, TileSquare, 4, 4, true},
		{16, TileWide, 2, 8, true},
		{16, TileTall, 8, 2, true},
		{64, TileWide, 4, 16, true},
		{9, TileSquare, 3, 3, true},
		{9, TileWide, 0, 0, false},    // odd side
		{12, TileSquare, 0, 0, false}, // not a perfect square
	}
	for _, c := range cases {
		r, ok := RegionFor(c.n, c.tile)
		if ok != c.ok {
			t.Errorf("RegionFor(%d, %s): ok=%v, want %v", c.n, c.tile, ok, c.ok)
			continue
		}
		if ok && (r.H != c.h || r.W != c.w || r.Size() != c.n) {
			t.Errorf("RegionFor(%d, %s) = %dx%d", c.n, c.tile, r.H, r.W)
		}
	}
}

// FuzzMappingParse: no input panics Parse, and every accepted mapping's
// String form parses back to an equal mapping. Seeded from the table tests.
func FuzzMappingParse(f *testing.F) {
	for _, s := range []string{"", "track=zorder,sort=merge", Default().String(), "sort=merge,arity=4",
		" track=hilbert , tile=wide", "track=diagonal", "arity=3", "tile=round", "sort=bogo", "nonsense", "color=red", "arity=+4", "arity=99999999999999999999"} {
		f.Add(s)
	}
	for _, m := range Space()[:8] {
		f.Add(m.String())
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := Parse(s)
		if err != nil {
			return
		}
		back, err := Parse(m.String())
		if err != nil || back != m {
			t.Fatalf("Parse(%q) = %v, whose String %q parses to %v (%v)", s, m, m.String(), back, err)
		}
	})
}
