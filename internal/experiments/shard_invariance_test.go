package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"repro/internal/harness"
	"repro/internal/trace"
)

// These tests are the API-redesign contract: sharded round execution and the
// batched/counting send path are wall-clock optimizations only. Every
// registered experiment must emit byte-identical output, and the machine must
// emit an identical trace event stream, for any shard count and either batch
// setting.

// shardCounts is the matrix the contract is checked over: sequential, two
// and four shards (covering shard counts below, equal to and above the local
// core count on small machines), and whatever this host would use by default.
func shardCounts() []int {
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// runAllExperiments renders every registered experiment in quick mode on a
// fresh runner built from opts and returns the concatenated CSV output.
func runAllExperiments(opts ...harness.Option) string {
	var buf bytes.Buffer
	Run(harness.New(1, opts...), Config{Quick: true, CSV: true, Out: &buf}, All()...)
	return buf.String()
}

// TestShardBatchOutputInvariance runs all registered experiments under every
// (shard count x batch mode) combination and requires the emitted tables to
// be byte-identical to the sequential, unbatched baseline. This is the
// user-visible half of the contract: WithShards / WithBatchSends may never
// change a number an experiment reports.
func TestShardBatchOutputInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment several times; seconds of simulation each")
	}
	if raceEnabled {
		t.Skip("race detector makes the sweeps ~10x slower; the machine-level -race shard test covers the concurrency")
	}
	workers := harness.WithWorkers(runtime.GOMAXPROCS(0))
	baseline := runAllExperiments(workers)
	if len(baseline) == 0 {
		t.Fatal("baseline run produced no output")
	}
	for _, shards := range shardCounts() {
		for _, batch := range []bool{false, true} {
			if shards == 1 && !batch {
				continue // that is the baseline
			}
			opts := []harness.Option{workers}
			if shards > 1 {
				opts = append(opts, harness.WithShards(shards))
			}
			if batch {
				opts = append(opts, harness.WithBatchSends())
			}
			got := runAllExperiments(opts...)
			if got != baseline {
				t.Errorf("shards=%d batch=%v: output differs from sequential baseline\n%s",
					shards, batch, firstDiff(baseline, got))
			}
		}
	}
}

// TestShardTraceStreamInvariance checks the other half of the contract: with
// a trace sink attached, the machine must emit the exact same event stream —
// same events, same order — regardless of the shard count. A single worker
// keeps the global stream deterministic; the stream itself is folded into an
// FNV hash so the comparison costs no memory. The sharded runs also enable
// WithBatchSends: a sink disables the counting-only path (see
// machine.CountingOnly), so traced streams must stay identical with it on —
// batch off under a sink is the same configuration, so it is not re-run.
func TestShardTraceStreamInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("single-worker traced runs of every experiment; seconds of simulation each")
	}
	if raceEnabled {
		t.Skip("race detector makes the sweeps ~10x slower; the machine-level -race shard test covers the concurrency")
	}
	stream := func(shards int, batch bool) (uint64, int64) {
		h := fnv.New64a()
		var n int64
		// The sink fires tens of millions of times per run, so the event is
		// folded in as fixed-width binary rather than formatted text.
		var buf [88]byte
		sink := trace.SinkFunc(func(e *trace.Event) {
			n++
			for i, v := range [...]int64{e.Seq, int64(e.From.Row), int64(e.From.Col),
				int64(e.To.Row), int64(e.To.Col), e.Dist, e.DepthBefore, e.DepthAfter,
				e.DistBefore, e.DistAfter, e.EnergyCum} {
				binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
			}
			h.Write(buf[:])
			h.Write([]byte(e.Phase))
		})
		opts := []harness.Option{harness.WithWorkers(1), harness.WithSink(sink)}
		if shards > 1 {
			opts = append(opts, harness.WithShards(shards))
		}
		if batch {
			opts = append(opts, harness.WithBatchSends())
		}
		runAllExperiments(opts...)
		return h.Sum64(), n
	}

	baseHash, baseN := stream(1, false)
	if baseN == 0 {
		t.Fatal("baseline traced run emitted no events")
	}
	for _, shards := range shardCounts() {
		if shards == 1 {
			continue
		}
		gotHash, gotN := stream(shards, true)
		if gotN != baseN || gotHash != baseHash {
			t.Errorf("shards=%d batch=true: trace stream differs from sequential baseline (%d events, hash %x; want %d events, hash %x)",
				shards, gotN, gotHash, baseN, baseHash)
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
