package trace

import (
	"fmt"
	"io"

	"repro/internal/fabric"
)

// HeatCell aggregates the traffic of one PE.
type HeatCell struct {
	// Sends/Recvs count messages originating at / delivered to the PE.
	Sends, Recvs int64
	// SendTraffic/RecvTraffic sum the Manhattan distances of those
	// messages — the PE's contribution to the energy metric, split by
	// endpoint.
	SendTraffic, RecvTraffic int64
	// Link counts traversals of the PE's four outgoing directed mesh
	// links under dimension-ordered (X-then-Y) routing, in east, west,
	// south, north order.
	Link [4]int64
}

// Traffic is the PE's total traffic (send + receive distance sums), the
// intensity the heatmap renderers use.
func (c HeatCell) Traffic() int64 { return c.SendTraffic + c.RecvTraffic }

// Heatmap aggregates per-PE message counts and per-link load over a run
// (or over many runs — cells accumulate across machine Resets, which is
// what a sweep-wide heatmap wants). Messages are routed hop by hop along
// the dimension-ordered (X-then-Y) path a mesh NoC would use, with the
// machine congestion tracker's own walk (fabric.Links), so per-event cost
// is O(distance). Not safe for concurrent use unless wrapped in
// Synchronized.
type Heatmap struct {
	cells  map[Coord]*HeatCell // send/receive counts; link loads are in links
	links  fabric.Links
	events int64
	// fab is the physical fabric events fold onto (SetFabric); the zero
	// value keeps virtual coordinates and walks the unbounded grid.
	fab fabric.Fabric
}

// NewHeatmap returns an empty heatmap.
func NewHeatmap() *Heatmap {
	return &Heatmap{cells: make(map[Coord]*HeatCell)}
}

// SetFabric folds all subsequent events onto a w×h physical fabric with the
// given per-axis fold block before aggregating, and routes their links on
// that fabric (with wraparound links when torus is true). Call it before
// the first event; coordinates in the aggregated cells are then physical
// fabric coordinates in [0,h)×[0,w). It is the fold of the machine's
// mesh/torus backends, so a heatmap fed by a machine running the same
// backend shows the same per-link loads as its congestion tracker. A
// fabric that machine.Backend would reject panics.
func (h *Heatmap) SetFabric(w, hgt, block int, torus bool) {
	f := fabric.Fabric{W: w, H: hgt, Block: max(block, 1), Torus: torus}
	if err := f.Check(); err != nil {
		panic(fmt.Sprintf("trace: SetFabric %dx%d:%d: %v", w, hgt, block, err))
	}
	h.fab = f
}

func (h *Heatmap) cell(c Coord) *HeatCell {
	hc := h.cells[c]
	if hc == nil {
		hc = &HeatCell{}
		h.cells[c] = hc
	}
	return hc
}

// Event accumulates one message.
func (h *Heatmap) Event(e *Event) {
	h.events++
	from, to := h.fab.Fold(fabric.Coord(e.From)), h.fab.Fold(fabric.Coord(e.To))
	src := h.cell(Coord(from))
	src.Sends++
	src.SendTraffic += e.Dist
	dst := h.cell(Coord(to))
	dst.Recvs++
	dst.RecvTraffic += e.Dist
	h.links.Walk(h.fab, from, to)
}

// Close is a no-op; the aggregated cells stay available.
func (h *Heatmap) Close() error { return nil }

// Events returns the number of messages aggregated.
func (h *Heatmap) Events() int64 { return h.events }

// MaxLinkLoad returns the highest traversal count over any directed link —
// under XY routing this matches the machine's MaxCongestion.
func (h *Heatmap) MaxLinkLoad() int64 { return h.links.Peak() }

// Cell returns the aggregate for PE c (the zero cell if untouched).
func (h *Heatmap) Cell(c Coord) HeatCell {
	var hc HeatCell
	if p := h.cells[c]; p != nil {
		hc = *p
	}
	hc.Link = h.links.Load(fabric.Coord(c))
	return hc
}

// Bounds returns the bounding box of all touched cells — PEs that sent,
// received or forwarded a message; ok is false when the heatmap is empty.
func (h *Heatmap) Bounds() (lo, hi Coord, ok bool) {
	grow := func(c Coord) {
		if !ok {
			lo, hi, ok = c, c, true
			return
		}
		lo.Row, hi.Row = min(lo.Row, c.Row), max(hi.Row, c.Row)
		lo.Col, hi.Col = min(lo.Col, c.Col), max(hi.Col, c.Col)
	}
	for c := range h.cells {
		grow(c)
	}
	h.links.Each(func(c fabric.Coord, _ [4]int64) { grow(Coord(c)) })
	return lo, hi, ok
}

// Grid returns the aggregates as a dense row-major grid covering the
// bounding box, with origin its top-left coordinate. An empty heatmap
// returns a nil grid.
func (h *Heatmap) Grid() (origin Coord, cells [][]HeatCell) {
	min, max, ok := h.Bounds()
	if !ok {
		return Coord{}, nil
	}
	rows := max.Row - min.Row + 1
	cols := max.Col - min.Col + 1
	cells = make([][]HeatCell, rows)
	for r := range cells {
		cells[r] = make([]HeatCell, cols)
	}
	for c, hc := range h.cells {
		cells[c.Row-min.Row][c.Col-min.Col] = *hc
	}
	h.links.Each(func(c fabric.Coord, load [4]int64) {
		cells[c.Row-min.Row][c.Col-min.Col].Link = load
	})
	return min, cells
}

// WriteCSV emits one line per touched PE, sorted row-major, with the
// header row,col,sends,recvs,send_traffic,recv_traffic,east,west,south,north.
func (h *Heatmap) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "row,col,sends,recvs,send_traffic,recv_traffic,east,west,south,north"); err != nil {
		return err
	}
	origin, grid := h.Grid()
	for r, rowCells := range grid {
		for c := range rowCells {
			hc := &rowCells[c]
			if *hc == (HeatCell{}) {
				continue
			}
			if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
				origin.Row+r, origin.Col+c, hc.Sends, hc.Recvs, hc.SendTraffic, hc.RecvTraffic,
				hc.Link[0], hc.Link[1], hc.Link[2], hc.Link[3]); err != nil {
				return err
			}
		}
	}
	return nil
}
