// Package backendinvariance holds the finite-hardware invariance suite as
// a test-only package. It lives outside package experiments on purpose:
// each fabric replays every registered experiment end to end, and the
// parent package's own invariance tests (shards, batch, cache) already
// fill most of the default per-package test budget on a single core.
// Splitting the backend matrix into its own test binary gives both suites
// their full budget without trimming coverage. Only the exported
// experiments API is used, so this package also pins that the contract is
// checkable from outside.
package backendinvariance

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/trace"
)

// Backend invariance is the finite-hardware contract: a backend changes
// what messages *cost*, never what the computation *does*. Every registered
// experiment, run under a folded mesh or torus fabric, must emit the exact
// same message stream — same sends, same order, same routing and depth —
// as under the ideal unbounded model. Only the cost fields (Dist,
// DistBefore/After, EnergyCum) may differ, so the stream hash below folds
// in everything except them.

// runAllExperiments renders every registered experiment in quick mode on a
// fresh runner built from opts and returns the concatenated CSV output.
func runAllExperiments(opts ...harness.Option) string {
	var buf bytes.Buffer
	experiments.Run(harness.New(1, opts...), experiments.Config{Quick: true, CSV: true, Out: &buf}, experiments.All()...)
	return buf.String()
}

// backendFabrics is the matrix the contract is checked over: a torus wide
// enough that quick-mode layouts fold only lightly (mostly coordinate
// remapping plus wraparound distances), and a small mesh that heavily
// co-locates virtual PEs (fold factor 8), where a bug in occupancy or
// congestion accounting would corrupt delivery order if the fold leaked
// into scheduling. One fabric per kind keeps the suite affordable; the
// cheaper machine-level tests cover the remaining (kind × fold) corners.
func backendFabrics() []machine.Backend {
	return []machine.Backend{
		machine.Torus(64, 64, 2),
		machine.Mesh(4, 4, 8),
	}
}

// TestBackendInvariance runs all registered experiments under every fabric
// and requires the cost-independent half of the trace stream (plus the
// event count) to match the ideal baseline exactly. A single worker keeps
// the global stream deterministic, as in the shard invariance suite. The
// ideal baseline's emitted tables double as the no-op check: an explicit
// WithBackend(Ideal()) run must report byte-identical numbers to a plain
// run (the shard suite already pins that attaching a sink never changes a
// reported number, so the plain run stays untraced).
func TestBackendInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("single-worker traced runs of every experiment per fabric; tens of seconds each")
	}
	if raceEnabled {
		t.Skip("race detector makes the sweeps ~10x slower; the machine-level -race folded shard test covers the concurrency")
	}
	stream := func(bk machine.Backend) (uint64, int64, string) {
		h := fnv.New64a()
		var n int64
		var buf [56]byte
		sink := trace.SinkFunc(func(e *trace.Event) {
			n++
			for i, v := range [...]int64{e.Seq, int64(e.From.Row), int64(e.From.Col),
				int64(e.To.Row), int64(e.To.Col), e.DepthBefore, e.DepthAfter} {
				binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
			}
			h.Write(buf[:])
			h.Write([]byte(e.Phase))
		})
		out := runAllExperiments(harness.WithWorkers(1), harness.WithSink(sink), harness.WithBackend(bk))
		return h.Sum64(), n, out
	}

	baseHash, baseN, baseOut := stream(machine.Ideal())
	if baseN == 0 {
		t.Fatal("baseline traced run emitted no events")
	}
	if plain := runAllExperiments(harness.WithWorkers(1)); plain != baseOut {
		t.Errorf("explicit ideal backend changed experiment output\n%s", firstDiff(plain, baseOut))
	}
	for _, bk := range backendFabrics() {
		gotHash, gotN, _ := stream(bk)
		if gotN != baseN || gotHash != baseHash {
			t.Errorf("backend %s: message stream differs from ideal baseline (%d events, hash %x; want %d events, hash %x)",
				bk, gotN, gotHash, baseN, baseHash)
		}
	}
}

// firstDiff renders the first line where two outputs diverge.
func firstDiff(want, got string) string {
	w, g := bytes.Split([]byte(want), []byte("\n")), bytes.Split([]byte(got), []byte("\n"))
	for i := 0; i < len(w) && i < len(g); i++ {
		if !bytes.Equal(w[i], g[i]) {
			return fmt.Sprintf("first difference at line %d:\n  want: %s\n  got:  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("outputs diverge in length: %d vs %d lines", len(w), len(g))
}
