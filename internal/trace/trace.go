// Package trace is the structured observability layer of the Spatial
// Computer Model simulator: every message the machine sends becomes one
// typed Event that flows through a pluggable Sink.
//
// The paper's three cost metrics — energy, depth, distance (Section III) —
// are end-of-run totals; the event stream is the evidence behind them.
// Composable built-in sinks answer the questions the totals cannot:
//
//   - CriticalPath reconstructs the dependent-message chain that realizes
//     the Depth bound (and the chain realizing the Distance bound), so the
//     longest chain can be inspected message by message.
//   - Heatmap aggregates per-PE send/receive counts, traffic and per-link
//     load under XY routing into a dense grid for rendering.
//   - Counters buckets energy, depth, messages and a distance histogram by
//     phase for harness tables.
//   - ChromeSink streams trace_event JSON loadable in chrome://tracing and
//     Perfetto, one track per grid row, phases as nested scopes.
//
// The package depends only on the standard library and the internal/fabric
// leaf, so that internal/machine, spatialdf and the cmd/ tools can all
// import it without reaching into one another.
package trace

import "sync"

// Coord identifies the processing element p_{Row,Col} on the simulated
// grid. It mirrors the machine's coordinate type (the grid is unbounded;
// negative coordinates are valid) without importing it.
type Coord struct {
	Row, Col int
}

// Event describes one message send. DepthBefore/DistBefore are the
// sender's causality clock when the message left (for sends inside a
// parallel round: the clock at the start of the round), so
//
//	DepthAfter = DepthBefore + 1    and    DistAfter = DistBefore + Dist
//
// always hold — DepthAfter is the length in messages, and DistAfter the
// summed distance, of the longest dependent-message chain ending with this
// message. EnergyCum is the machine's total energy including this message.
type Event struct {
	// Seq is the 1-based message sequence number (the machine's message
	// counter after this send).
	Seq      int64
	From, To Coord
	// Dist is the Manhattan distance from From to To — the energy this
	// message costs.
	Dist  int64
	Value any
	// DepthBefore/DepthAfter are the sender's chain depth before the send
	// and the resulting chain depth of this message.
	DepthBefore, DepthAfter int64
	// DistBefore/DistAfter are the corresponding summed chain distances.
	DistBefore, DistAfter int64
	// EnergyCum is the machine's cumulative energy after this message.
	EnergyCum int64
	// Phase is the machine's current Phase annotation ("" if none). Slash
	// separators ("spmv/sort-cols") render as nested scopes in ChromeSink.
	Phase string
}

// Sink consumes the event stream. The *Event passed to Event is only valid
// for the duration of the call — implementations that retain it must copy.
// Close flushes any buffered output; the machine never calls it, the owner
// of the sink does.
//
// A sink attached to a machine is invoked synchronously on the send path,
// so it must not call back into the machine. Sinks are not safe for
// concurrent use unless wrapped in Synchronized.
type Sink interface {
	Event(e *Event)
	Close() error
}

// SinkFunc adapts a function to the Sink interface (Close is a no-op).
type SinkFunc func(e *Event)

// Event calls f.
func (f SinkFunc) Event(e *Event) { f(e) }

// Close is a no-op.
func (SinkFunc) Close() error { return nil }

// multi fans one event stream out to several sinks in order.
type multi struct {
	sinks []Sink
}

// Multi returns a sink forwarding every event to each of sinks in order.
// Close closes them all and returns the first error. Nil sinks are
// skipped; Multi() of zero or one sink returns the trivial equivalent.
func Multi(sinks ...Sink) Sink {
	kept := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return &multi{sinks: kept}
}

func (m *multi) Event(e *Event) {
	for _, s := range m.sinks {
		s.Event(e)
	}
}

func (m *multi) Close() error {
	var first error
	for _, s := range m.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// synchronized serializes access to a sink shared across goroutines.
type synchronized struct {
	mu sync.Mutex
	s  Sink
}

// Synchronized wraps s so that Event and Close may be called from multiple
// goroutines — e.g. one aggregating Heatmap shared by all workers of a
// parallel sweep. Events from different goroutines interleave in lock
// order.
func Synchronized(s Sink) Sink {
	if s == nil {
		return nil
	}
	return &synchronized{s: s}
}

func (y *synchronized) Event(e *Event) {
	y.mu.Lock()
	y.s.Event(e)
	y.mu.Unlock()
}

func (y *synchronized) Close() error {
	y.mu.Lock()
	defer y.mu.Unlock()
	return y.s.Close()
}
