package spatialdf

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mapping"
	"repro/internal/trace"
)

// Coord identifies one processing element of the simulated grid in trace
// events. The grid is unbounded; negative coordinates are valid.
type Coord = trace.Coord

// Event is one traced message: who sent it, who received it, how far it
// travelled and where it sits on the dependency chains the cost model
// tracks. See the trace package for the field-by-field contract.
type Event = trace.Event

// TraceSink consumes the event stream of an operation's machine. The
// built-in sinks (trace.CriticalPath, trace.Heatmap, trace.Counters,
// trace.NewChromeSink) and combinators (trace.Multi, trace.Synchronized)
// all satisfy it.
type TraceSink = trace.Sink

// Option configures the simulated machine an operation runs on. Every
// facade operation accepts options; options meaningless to an operation
// (e.g. WithSeed on a deterministic scan) are ignored.
//
// Some option combinations are contradictory (see WithShards and
// WithBatchSends). Operations that return an error report an invalid
// combination as that error; operations without an error return panic with
// it, like they do for the memory-limit contract.
type Option func(*config)

type config struct {
	memLimit   int
	congestion bool
	sinks      []trace.Sink
	seed       int64
	shards     int
	batchSends bool
	mapping    mapping.Mapping
	backend    machine.Backend
	err        error
}

func buildConfig(opts []Option) config {
	// Without WithMapping an operation runs the paper's mapping: Z-order
	// layouts, the quadrant-recursion collectives, the 2-D mergesort.
	cfg := config{seed: 1, mapping: mapping.Mapping{Track: TrackZOrder, Arity: 4, Tile: mapping.TileSquare, Sort: mapping.SortMerge}}
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	if cfg.err == nil {
		cfg.err = cfg.validate()
	}
	return cfg
}

// validate rejects contradictory option combinations. The rules mirror the
// machine's semantics: sharding reports a memory-limit violation only after
// the offending round completes, so the deterministic mid-round panic the
// limit promises needs the sequential engine; the counting-only fast path
// keeps payloads host-side, which would blind both a trace sink and the
// per-PE memory accounting.
func (c config) validate() error {
	if c.shards > 1 && c.memLimit > 0 {
		return fmt.Errorf("spatialdf: WithShards(%d) is incompatible with WithMemoryLimit (violation attribution needs the sequential engine)", c.shards)
	}
	if c.batchSends {
		if c.memLimit > 0 {
			return fmt.Errorf("spatialdf: WithBatchSends is incompatible with WithMemoryLimit (counting-only sends keep payloads host-side)")
		}
		if len(c.sinks) > 0 {
			return fmt.Errorf("spatialdf: WithBatchSends is incompatible with WithTraceSink (counting-only sends carry no payload to trace)")
		}
	}
	return nil
}

// WithMemoryLimit bounds the number of registers any single PE may hold,
// certifying the model's O(1)-memory contract. Exceeding the limit is an
// algorithmic contract violation: operations that return an error report it
// as a machine.MemoryLimitError; operations without an error return panic.
func WithMemoryLimit(limit int) Option {
	return func(c *config) { c.memLimit = limit }
}

// WithCongestion enables per-link traffic tracking under dimension-ordered
// (X-then-Y) mesh routing; the resulting maximum per-link load is reported
// in Metrics.MaxLinkLoad. Tracking costs O(distance) bookkeeping per
// message, so it is off by default. It composes with WithShards: link loads
// are tracked as each message is issued, before any sharded delivery, so
// the reported load is identical for every shard count.
func WithCongestion() Option {
	return func(c *config) { c.congestion = true }
}

// WithShards delivers the operation's large parallel rounds across k shards
// of the PE grid (destination-tile partitioning; see internal/machine). The
// results and Metrics are byte-identical for every k — sharding changes
// wall-clock time only. k <= 1 keeps rounds sequential. Composes with
// WithCongestion and WithTraceSink (the event stream stays in issue order);
// combining it with WithMemoryLimit is an error, reported per the Option
// contract.
func WithShards(k int) Option {
	return func(c *config) {
		if k < 1 {
			c.err = fmt.Errorf("spatialdf: WithShards(%d): shard count must be at least 1", k)
			return
		}
		c.shards = k
	}
}

// WithBatchSends admits the machine's counting-only fast path: operations
// whose communication is data-oblivious (SortBitonic, SortMesh, the scans
// Scan, ScanWith, ScanTree and SegmentedScan, and the sorting networks,
// scans and predecessor counts inside Sort, SortIndices, Select, Median
// and SpMV) keep payloads host-side and skip the register traffic. Energy, Depth, Distance and
// Messages are unchanged; PeakMemory reflects only the registers actually
// materialized, and Metrics.CriticalPath is unavailable (the implicit
// critical-path recorder is a trace sink, which the fast path forgoes).
// Combining it with WithTraceSink or WithMemoryLimit is an error, reported
// per the Option contract.
func WithBatchSends() Option {
	return func(c *config) { c.batchSends = true }
}

// WithTraceSink attaches a sink to the operation's machine; it receives one
// Event per message sent. Multiple WithTraceSink options fan out to every
// sink in order. The operation does not close the sink — callers flush or
// close file-backed sinks (e.g. trace.NewChromeSink) themselves after the
// operation returns. A nil sink is ignored.
func WithTraceSink(s TraceSink) Option {
	return func(c *config) {
		if s != nil {
			c.sinks = append(c.sinks, s)
		}
	}
}

// WithBackend runs the operation on a finite hardware backend instead of
// the ideal unbounded grid. The spec is "ideal" (the default), or
// "mesh:WxH[:block]" / "torus:WxH[:block]": the virtual grid folds onto a
// W×H fabric of physical PEs (block consecutive virtual PEs per physical
// PE per axis) and every message is charged the mesh — or wraparound torus
// — distance between the physical homes of its endpoints. Results are
// identical under every backend; only the cost metrics (Energy, Distance,
// PeakMemory, MaxLinkLoad) change. A malformed spec is an error, reported
// per the Option contract.
func WithBackend(spec string) Option {
	return func(c *config) {
		b, err := machine.ParseBackend(spec)
		if err != nil {
			c.err = fmt.Errorf("spatialdf: WithBackend: %w", err)
			return
		}
		c.backend = b
	}
}

// WithSeed sets the seed of the pseudo-random choices of randomized
// operations (Select, Median). Results are deterministic for a fixed seed;
// the default seed is 1.
func WithSeed(seed int64) Option {
	return func(c *config) { c.seed = seed }
}

// newMachine constructs the simulated machine an operation runs on. Every
// machine gets a critical-path recorder ahead of the caller's sinks so
// Metrics.CriticalPath is available on demand — except under WithBatchSends,
// whose counting-only fast path requires a sink-free machine. An invalid
// option combination panics here with the config error; error-returning
// operations recover it (see capture).
func (c config) newMachine() *machine.Machine {
	if c.err != nil {
		panic(optionError{c.err})
	}
	var m *machine.Machine
	if c.memLimit > 0 {
		m = machine.NewWithMemoryLimit(c.memLimit)
	} else {
		m = machine.New()
	}
	if c.congestion {
		m.EnableCongestionTracking()
	}
	if c.batchSends {
		m.SetBatchSends(true)
	} else {
		all := append([]trace.Sink{trace.NewCriticalPath()}, c.sinks...)
		m.SetSink(trace.Multi(all...))
	}
	if c.shards > 1 {
		m.SetShards(c.shards)
	}
	if c.backend.Finite() {
		m.SetBackend(c.backend)
	}
	return m
}

// optionError wraps an invalid option combination for transport through the
// panic path of operations that lack an error return.
type optionError struct{ err error }

func (e optionError) Error() string { return e.err.Error() }

// captureMemLimit converts a memory-limit contract violation or an invalid
// option combination into the returned error of the enclosing operation.
// Any other panic propagates.
func captureMemLimit(err *error) {
	if r := recover(); r != nil {
		switch v := r.(type) {
		case machine.MemoryLimitError:
			*err = v
		case optionError:
			*err = v.err
		default:
			panic(r)
		}
	}
}
