package spatialdf

import (
	"repro/internal/grid"
	"repro/internal/mapping"
)

// Mapping is a serializable layout/schedule configuration: which grid
// track arrays live on (TrackRowMajor, TrackZOrder, TrackHilbert), the
// broadcast/reduce tree arity, the processor-tile aspect ratio, and the
// sorting algorithm. Scan, Reduce, Sort and SpMV honor the fields that
// apply to them (see WithMapping); String/ParseMapping round-trip the
// canonical form ("track=zorder,arity=4,tile=square,sort=merge") and
// the JSON encoding is a plain struct, so a tuning verdict from
// spatialtune names a configuration this package can replay exactly.
type Mapping = mapping.Mapping

// Track kinds a Mapping can place arrays on.
const (
	TrackRowMajor = grid.TrackRowMajor
	TrackZOrder   = grid.TrackZOrder
	TrackHilbert  = grid.TrackHilbert
)

// DefaultMapping is the naive baseline configuration: row-major layout,
// binary trees, square tile, bitonic sort.
func DefaultMapping() Mapping { return mapping.Default() }

// ParseMapping reads a Mapping from its canonical string form. Omitted
// fields keep their DefaultMapping value, so partial overrides like
// "track=zorder" are valid.
func ParseMapping(s string) (Mapping, error) { return mapping.Parse(s) }

// WithMapping runs the operation under the given layout/schedule
// configuration instead of the paper's fixed choices. Operations honor
// the fields that apply to them — Scan the track, Reduce the track,
// arity and tile, Sort the algorithm and (for network sorts) the track,
// SpMV the matrix track — and ignore the rest. Without this option every
// operation keeps its documented paper mapping (Z-order scans, quadrant
// collectives, 2-D mergesort for Sort); note that differs from
// DefaultMapping, which is the naive baseline the tuner measures
// against. An invalid mapping is an option error, reported per the
// Option contract.
func WithMapping(m Mapping) Option {
	return func(c *config) {
		if err := m.Validate(); err != nil {
			c.err = err
			return
		}
		c.mapping = m
	}
}
