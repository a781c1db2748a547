package experiments

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/simcache"
	"repro/internal/trace"
)

// The execution contracts: the paper's costs belong to the model, not to
// the simulator's executor. Sharded delivery, the counting kernel (batch
// sends), the worker count, a trace sink and the result cache change
// wall-clock only, so every experiment's output and message stream stay
// byte-identical; a folded backend changes what each message costs, never
// which messages are sent, in what order, or how they chain; and every
// measured Depth and Distance is realized by the event stream
// (harness.WithCriticalPathCheck). One matrix of configurations carries
// them all: each configuration renders every experiment once, and one of
// the five contract tests below checks it.

// stream is a traced run's sink: it counts the events and folds them into
// two hashes, so comparing streams costs no memory. full covers every field
// but Value; costFree leaves out what a backend may change (Dist,
// DistBefore/After, EnergyCum).
type stream struct {
	events         int64
	full, costFree uint64
	phase          string
	phaseHash      uint64
}

func (s *stream) Event(e *trace.Event) {
	if e.Phase != s.phase {
		h := fnv.New64a()
		h.Write([]byte(e.Phase))
		s.phase, s.phaseHash = e.Phase, h.Sum64()
	}
	s.events++
	s.costFree = fold(s.costFree, e.Seq, int64(e.From.Row), int64(e.From.Col),
		int64(e.To.Row), int64(e.To.Col), e.DepthBefore, e.DepthAfter, int64(s.phaseHash))
	s.full = fold(s.full, e.Seq, int64(e.From.Row), int64(e.From.Col),
		int64(e.To.Row), int64(e.To.Col), e.DepthBefore, e.DepthAfter, int64(s.phaseHash),
		e.Dist, e.DistBefore, e.DistAfter, e.EnergyCum)
}

func (*stream) Close() error { return nil }

// fold mixes words into h one at a time, as FNV-1a mixes bytes. Each step
// is a bijection of h, so two streams that differ in one word never fold
// to the same hash.
func fold(h uint64, words ...int64) uint64 {
	for _, w := range words {
		h = (h ^ uint64(w)) * 1099511628211
	}
	return h
}

// outcome is what one configuration's run produced.
type outcome struct {
	out    string         // every experiment's quick CSV output
	stream stream         // the message stream of a traced run
	stats  simcache.Stats // the cache's counters after a cached run
	panic  any            // what the run panicked with, if it did
	took   time.Duration
}

// contract is one configuration of the matrix: the contract test that
// checks it, its run, the configuration whose run must finish first (if
// any), and the checks its outcome must pass against the traced baseline's.
type contract struct {
	test, name string
	run        func(o *outcome)
	after      *contract
	check      func(t *testing.T, got, base *outcome)
	done       chan struct{}
	got        outcome
}

// runAll renders every registered experiment in quick CSV mode on a fresh
// runner built from opts and returns the output.
func runAll(opts ...harness.Option) string {
	var buf bytes.Buffer
	Run(harness.New(1, opts...), Config{Quick: true, CSV: true, Out: &buf}, All()...)
	return buf.String()
}

// matrix builds the configurations and starts their runs, once per test
// binary: each renders all experiments once, on its own runner, at most
// GOMAXPROCS runners at a time. The first contract test to run starts them
// all, so one run serves every check whichever tests -run selects. The
// first configuration is the traced baseline; every traced run has one
// worker, a stream sink and the critical-path check.
var matrix = sync.OnceValue(func() []*contract {
	one, cpCheck := harness.WithWorkers(1), harness.WithCriticalPathCheck()
	traced := func(opts ...harness.Option) func(o *outcome) {
		return func(o *outcome) {
			o.out = runAll(append(opts, one, cpCheck, harness.WithSink(&o.stream))...)
		}
	}
	untraced := func(opts ...harness.Option) func(o *outcome) {
		return func(o *outcome) { o.out = runAll(opts...) }
	}
	sameOutput := func(t *testing.T, got, base *outcome) {
		if got.out != base.out {
			t.Errorf("output differs from the traced baseline's\n%s", firstDiff(base.out, got.out))
		}
	}

	const (
		contracts   = "TestExecutionContracts"
		traceStream = "TestShardTraceStreamInvariance"
		batchOutput = "TestShardBatchOutputInvariance"
		backends    = "TestBackendInvariance"
		cacheOutput = "TestCacheOutputIdentity"
	)
	cs := []*contract{{test: contracts, name: "traced/ideal", run: traced(harness.WithBackend(machine.Ideal())),
		check: func(t *testing.T, got, _ *outcome) {
			if got.stream.events == 0 || got.out == "" {
				t.Fatal("the baseline emitted no events or no output")
			}
		}}}
	shards := []int{2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		shards = append(shards, n)
	}
	for _, k := range shards {
		cs = append(cs, &contract{test: traceStream, name: fmt.Sprintf("shards=%d,batch", k),
			run: traced(harness.WithShards(k), harness.WithBatchSends()),
			check: func(t *testing.T, got, base *outcome) {
				if g, b := got.stream, base.stream; g.events != b.events || g.full != b.full {
					t.Errorf("message stream differs from the traced baseline's: %d events, hash %x; want %d, %x",
						g.events, g.full, b.events, b.full)
				}
				sameOutput(t, got, base)
			}})
	}
	for _, bk := range []machine.Backend{machine.Torus(64, 64, 2), machine.Mesh(4, 4, 8)} {
		cs = append(cs, &contract{test: backends, name: bk.String(), run: traced(harness.WithBackend(bk)),
			check: func(t *testing.T, got, base *outcome) {
				if g, b := got.stream, base.stream; g.events != b.events || g.costFree != b.costFree {
					t.Errorf("message stream differs from the ideal baseline's beyond costs: %d events, hash %x; want %d, %x",
						g.events, g.costFree, b.events, b.costFree)
				}
			}})
	}
	cs = append(cs, &contract{test: contracts, name: fmt.Sprintf("untraced/workers=%d", runtime.GOMAXPROCS(0)),
		run: untraced(harness.WithWorkers(runtime.GOMAXPROCS(0))), check: sameOutput})
	for _, k := range append([]int{1}, shards...) {
		cs = append(cs, &contract{test: batchOutput, name: fmt.Sprintf("shards=%d,batch", k),
			run: untraced(one, harness.WithShards(k), harness.WithBatchSends()), check: sameOutput})
	}
	cache := simcache.New(simcache.Memory(), 0)
	cached := func(o *outcome) {
		o.out = runAll(one, harness.WithCache(cache), harness.WithCacheVersion("test"))
		o.stats = cache.Stats()
	}
	cold := &contract{test: cacheOutput, name: "cold", run: cached, check: func(t *testing.T, got, base *outcome) {
		if st := got.stats; st.Hits != 0 || st.Misses == 0 || st.Stores != st.Misses {
			t.Errorf("cold run stats = %+v, want every point a miss, every miss stored", st)
		}
		sameOutput(t, got, base)
	}}
	cs = append(cs, cold, &contract{test: cacheOutput, name: "warm", run: cached, after: cold, check: func(t *testing.T, got, base *outcome) {
		st, prev := got.stats, cold.got.stats
		if st.Hits-prev.Hits != prev.Stores || st.Misses != prev.Misses {
			t.Errorf("warm run scored %d hits and %d misses over %d stored points, want every point a hit",
				st.Hits-prev.Hits, st.Misses-prev.Misses, prev.Stores)
		}
		sameOutput(t, got, base)
	}})

	// Configurations start in list order, so the warm run only ever waits
	// on a cold run that already holds a slot.
	for _, c := range cs {
		c.done = make(chan struct{})
	}
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	go func() {
		for _, c := range cs {
			slots <- struct{}{}
			go func() {
				defer func() {
					c.got.panic = recover()
					<-slots
					close(c.done)
				}()
				if c.after != nil {
					<-c.after.done
				}
				start := time.Now()
				c.run(&c.got)
				c.got.took = time.Since(start)
			}()
		}
	}()
	return cs
})

// checkContracts checks the configurations of the matrix that belong to
// the calling test, each as its own subtest, against the traced baseline.
func checkContracts(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment once per configuration; minutes of simulation")
	}
	if raceEnabled {
		t.Skip("race detector makes the sweeps ~10x slower; the machine-level -race shard tests cover the concurrency")
	}
	cs := matrix()
	base := cs[0]
	for _, c := range cs {
		if c.test != t.Name() {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			<-c.done
			<-base.done
			if c.got.panic != nil {
				t.Fatalf("run panicked: %v", c.got.panic)
			}
			if base.got.panic != nil {
				t.Fatal("the traced baseline panicked")
			}
			t.Logf("ran in %v", c.got.took.Round(time.Second))
			c.check(t, &c.got, &base.got)
		})
	}
}

// TestExecutionContracts checks the matrix's baseline pair. The traced
// baseline (ideal, with an explicit WithBackend(Ideal())) runs the
// critical-path check, as every traced run does, and the plain untraced
// run on GOMAXPROCS workers must report its output byte for byte, so a
// sink, an explicit ideal backend and the worker count change no number.
// The graph sweeps also check every answer against the host reference in
// every configuration.
func TestExecutionContracts(t *testing.T) { checkContracts(t) }

// TestShardTraceStreamInvariance checks the traced shard runs: with batch
// on, which a sink keeps off the counting kernel, they must match the
// baseline's event count, full stream hash and output. They also stand in
// for untraced shards with batch off, since the baseline pair already
// shows that a sink changes no number.
func TestShardTraceStreamInvariance(t *testing.T) { checkContracts(t) }

// TestShardBatchOutputInvariance checks the untraced shards × batch-on
// runs, which take the counting kernel: their output must equal the
// baseline's.
func TestShardBatchOutputInvariance(t *testing.T) { checkContracts(t) }

// TestBackendInvariance checks the traced fabric runs, a lightly folded
// torus and a mesh that puts eight virtual PEs on each physical one: a
// backend changes what messages cost, never which are sent, in what order
// or how they chain, so each must match the ideal baseline's event count
// and cost-free hash.
func TestBackendInvariance(t *testing.T) { checkContracts(t) }

// TestCacheOutputIdentity checks a cold and a warm run through one
// in-memory cache: both must report the baseline's output, the cold run
// missing and storing every point and the warm run hitting every one.
func TestCacheOutputIdentity(t *testing.T) { checkContracts(t) }

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
