package spatialdf

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestShardsByteIdenticalFacade: every shard count must produce the same
// results and Metrics through the public API, for both a value-carrying op
// (Sort) and the network sorts eligible for the counting fast path.
func TestShardsByteIdenticalFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	type runFn func(opts ...Option) ([]float64, Metrics)
	for name, run := range map[string]runFn{
		"Sort":        func(opts ...Option) ([]float64, Metrics) { return Sort(vals, opts...) },
		"SortBitonic": func(opts ...Option) ([]float64, Metrics) { return SortBitonic(vals, opts...) },
		"SortMesh":    func(opts ...Option) ([]float64, Metrics) { return SortMesh(vals, opts...) },
		"Scan":        func(opts ...Option) ([]float64, Metrics) { return Scan(vals, opts...) },
	} {
		base, baseMet := run()
		for _, k := range []int{2, 4, runtime.NumCPU()} {
			out, met := run(WithShards(k))
			if met != baseMet {
				t.Errorf("%s WithShards(%d): metrics %v, want %v", name, k, met, baseMet)
			}
			for i := range out {
				if out[i] != base[i] {
					t.Fatalf("%s WithShards(%d): out[%d] = %v, want %v", name, k, i, out[i], base[i])
				}
			}
		}
		// Batched counting mode: identical except PeakMemory may shrink.
		out, met := run(WithBatchSends(), WithShards(2))
		if met.Energy != baseMet.Energy || met.Depth != baseMet.Depth ||
			met.Distance != baseMet.Distance || met.Messages != baseMet.Messages {
			t.Errorf("%s WithBatchSends: metrics %v, want %v", name, met, baseMet)
		}
		if met.PeakMemory > baseMet.PeakMemory {
			t.Errorf("%s WithBatchSends: peak memory grew: %d > %d", name, met.PeakMemory, baseMet.PeakMemory)
		}
		for i := range out {
			if out[i] != base[i] {
				t.Fatalf("%s WithBatchSends: out[%d] = %v, want %v", name, i, out[i], base[i])
			}
		}
	}
}

// TestShardsComposeWithTracing: a trace sink forces the sequential charge
// pass, so the event stream must be identical for every shard count.
func TestShardsComposeWithTracing(t *testing.T) {
	vals := []float64{9, 3, 7, 1, 8, 2, 6, 4, 5, 0, 11, 13, 12, 10, 15, 14}
	record := func(opts ...Option) []Event {
		var events []Event
		opts = append(opts, WithTraceSink(trace.SinkFunc(func(e *Event) { events = append(events, *e) })))
		SortMesh(vals, opts...)
		return events
	}
	want := record()
	for _, k := range []int{2, 4} {
		got := record(WithShards(k))
		if len(got) != len(want) {
			t.Fatalf("WithShards(%d): %d events, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("WithShards(%d): event %d = %+v, want %+v", k, i, got[i], want[i])
			}
		}
	}
}

// TestShardsComposeWithCongestion: link loads are charged sequentially, so
// MaxLinkLoad must not depend on the shard count.
func TestShardsComposeWithCongestion(t *testing.T) {
	vals := make([]float64, 256)
	for i := range vals {
		vals[i] = float64(255 - i)
	}
	_, base := Sort(vals, WithCongestion())
	if base.MaxLinkLoad == 0 {
		t.Fatal("congestion tracking reported no load")
	}
	_, got := Sort(vals, WithCongestion(), WithShards(4))
	if got != base {
		t.Errorf("WithCongestion+WithShards(4): %v, want %v", got, base)
	}
}

// TestInvalidOptionCombinations: contradictory combinations error on ops
// with an error return and panic on ops without one.
func TestInvalidOptionCombinations(t *testing.T) {
	vals := []float64{3, 1, 2}
	cases := []struct {
		name string
		opts []Option
		frag string
	}{
		{"shards+memlimit", []Option{WithShards(2), WithMemoryLimit(4)}, "WithShards(2) is incompatible with WithMemoryLimit"},
		{"batch+memlimit", []Option{WithBatchSends(), WithMemoryLimit(4)}, "WithBatchSends is incompatible with WithMemoryLimit"},
		{"batch+sink", []Option{WithBatchSends(), WithTraceSink(trace.SinkFunc(func(*Event) {}))}, "WithBatchSends is incompatible with WithTraceSink"},
		{"shards<1", []Option{WithShards(0)}, "shard count must be at least 1"},
	}
	for _, tc := range cases {
		// Error-returning op: the combination surfaces as the error.
		_, _, err := Select(vals, 1, tc.opts...)
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: Select err = %v, want containing %q", tc.name, err, tc.frag)
		}
		// Op without an error return: documented panic.
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(optionErrString(r), tc.frag) {
					t.Errorf("%s: Sort panic = %v, want containing %q", tc.name, r, tc.frag)
				}
			}()
			Sort(vals, tc.opts...)
		}()
	}
}

func optionErrString(r any) string {
	if e, ok := r.(error); ok {
		return e.Error()
	}
	return ""
}

// TestBatchSendsDropsCriticalPath documents the WithBatchSends trade-off:
// a critical path needs a recorder, which is a sink, which the counting
// fast path forgoes.
func TestBatchSendsDropsCriticalPath(t *testing.T) {
	vals := []float64{4, 3, 2, 1}
	cp := NewCriticalPath()
	if _, met := SortBitonic(vals, WithTraceSink(cp)); int64(len(cp.DepthPath())) != met.Depth || met.Depth == 0 {
		t.Fatalf("recorded a %d-hop path for depth %d", len(cp.DepthPath()), met.Depth)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(optionErrString(r), "WithBatchSends is incompatible with WithTraceSink") {
			t.Errorf("WithBatchSends with a recorder: panic %v", r)
		}
	}()
	SortBitonic(vals, WithBatchSends(), WithTraceSink(NewCriticalPath()))
}
