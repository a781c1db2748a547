// Package harness runs embarrassingly parallel measurement sweeps across a
// worker pool of recycled simulation machines.
//
// The paper's evaluation is a grid of independent measurement points —
// (experiment x problem size x algorithm variant), each a fresh run on its
// own simulated machine. The harness decomposes an experiment into point
// tasks, executes them on a fixed number of workers, leases machines from a
// process-wide sync.Pool (recycled in place with Machine.Reset) and
// collects the resulting rows back in point order.
//
// Determinism: every point draws its randomness from an RNG seeded by
// (base seed, sweep name, point index) — never from a stream shared across
// points — and results are indexed by point, so the emitted tables are
// byte-identical regardless of the worker count or completion order.
// Running with one worker reproduces a fully sequential sweep.
package harness

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/simcache"
	"repro/internal/trace"
)

// Row is one table row produced by a sweep point: cells in the column
// order of the experiment's output table.
type Row = []any

// One wraps a single row's cells, for the common one-row-per-point case.
func One(cells ...any) []Row { return []Row{cells} }

// PointFunc computes point i of a sweep and returns its rows. Points of a
// sweep must be mutually independent: all randomness must come from
// env.Rng and all simulation must go through env's machine.
type PointFunc func(i int, env *Env) []Row

// Env is the per-point execution environment.
type Env struct {
	// Rng is seeded deterministically from (runner base seed, sweep name,
	// point index), so a point draws the same workload no matter which
	// worker runs it or in what order.
	Rng *rand.Rand

	r      *Runner
	s      *Sweep
	cong   bool
	m      *machine.Machine
	replay *clockReplay
}

// Machine returns the point's simulation machine, reset to a blank grid.
// The machine is leased from the process-wide pool on first use and
// returned when the point finishes; calling Machine again within a point
// resets the same machine for the next measurement.
func (e *Env) Machine() *machine.Machine {
	if e.m == nil {
		e.m = machines.Get().(*machine.Machine)
		if e.cong {
			e.m.EnableCongestionTracking()
		}
		var sinks []trace.Sink
		if e.r.cpCheck {
			e.replay = &clockReplay{clocks: make(map[trace.Coord]chain)}
			sinks = append(sinks, e.replay)
		}
		if e.r.sink != nil {
			sinks = append(sinks, e.r.sink)
		}
		e.m.SetSink(trace.Multi(sinks...))
		e.m.SetShards(e.r.shards)
		e.m.SetBatchSends(e.r.batchSends)
		e.m.SetBackend(e.r.backend)
	} else {
		// A re-lease within a point ends the previous measurement: verify
		// its replayed clocks before Reset discards the machine's.
		e.verify()
	}
	e.m.Reset()
	return e.m
}

// clockReplay is the sink behind WithCriticalPathCheck. It replays every
// PE's causality clock from the event stream, as the largest DepthAfter
// and DistAfter delivered to the PE, in O(touched PEs) memory; it checks
// each event against the replay as it arrives and sums the stream's cost
// counters for verify.
type clockReplay struct {
	clocks                        map[trace.Coord]chain
	messages, energy, depth, dist int64
}

// chain is a replayed clock: the longest chain delivered to a PE, in hops
// and in summed distance.
type chain struct{ depth, dist int64 }

// Event checks e and applies its delivery. A message extends its sender's
// chain by one hop of Dist, and that chain is at most the sender's
// replayed clock: a Par round sends from its start-of-round clock and
// Independent rolls its branches back, so it can be less, never more. A
// violation panics, which Rows surfaces as a *PointPanic.
func (c *clockReplay) Event(e *trace.Event) {
	from := c.clocks[e.From]
	switch {
	case e.DepthBefore < 0 || e.DistBefore < 0:
		panic(fmt.Sprintf("harness: critical-path check: message %d leaves %v with a negative chain (%d hops, distance %d)",
			e.Seq, e.From, e.DepthBefore, e.DistBefore))
	case e.DepthAfter != e.DepthBefore+1 || e.DistAfter != e.DistBefore+e.Dist:
		panic(fmt.Sprintf("harness: critical-path check: message %d takes its chain from (%d hops, distance %d) to (%d, %d) over distance %d",
			e.Seq, e.DepthBefore, e.DistBefore, e.DepthAfter, e.DistAfter, e.Dist))
	case e.DepthBefore > from.depth || e.DistBefore > from.dist:
		panic(fmt.Sprintf("harness: critical-path check: message %d leaves %v on a chain of (%d hops, distance %d), beyond its replayed clock (%d, %d)",
			e.Seq, e.From, e.DepthBefore, e.DistBefore, from.depth, from.dist))
	}
	to := c.clocks[e.To]
	c.clocks[e.To] = chain{max(to.depth, e.DepthAfter), max(to.dist, e.DistAfter)}
	c.messages++
	c.energy += e.Dist
	c.depth = max(c.depth, e.DepthAfter)
	c.dist = max(c.dist, e.DistAfter)
}

// Close is a no-op.
func (*clockReplay) Close() error { return nil }

// verify ends a measurement when the runner runs WithCriticalPathCheck: the
// replay's message count, energy, depth and distance must equal the
// machine's Metrics, and every replayed PE clock its Machine.Clock (after
// the last Independent join a PE's clock is the maximum over its
// deliveries). A mismatch panics, as in Event; then the replay is cleared
// for the next measurement.
func (e *Env) verify() {
	c := e.replay
	if c == nil {
		return
	}
	met := e.m.Metrics()
	if c.messages != met.Messages || c.energy != met.Energy || c.depth != met.Depth || c.dist != met.Distance {
		panic(fmt.Sprintf("harness: critical-path check: the stream replays %d messages, energy %d, depth %d, distance %d; the machine counts %d, %d, %d, %d",
			c.messages, c.energy, c.depth, c.dist, met.Messages, met.Energy, met.Depth, met.Distance))
	}
	for pe, clk := range c.clocks {
		if depth, dist := e.m.Clock(machine.Coord(pe)); depth != clk.depth || dist != clk.dist {
			panic(fmt.Sprintf("harness: critical-path check: %v replays clock (%d hops, distance %d), the machine holds (%d, %d)",
				pe, clk.depth, clk.dist, depth, dist))
		}
	}
	clear(c.clocks)
	*c = clockReplay{clocks: c.clocks}
}

// Measure runs one computation on a freshly reset machine and returns its
// cost metrics.
func (e *Env) Measure(run func(m *machine.Machine)) machine.Metrics {
	m := e.Machine()
	run(m)
	return m.Metrics()
}

// release returns the leased machine (if any) to the pool, dropping
// payload references, the trace sink and any per-sweep congestion tracker
// first.
func (e *Env) release() {
	if e.m == nil {
		return
	}
	if e.cong {
		e.m.DisableCongestionTracking()
	}
	e.m.Reset()
	e.m.SetSink(nil)
	e.m.SetShards(1)
	e.m.SetBatchSends(false)
	e.m.SetBackend(machine.Ideal())
	machines.Put(e.m)
	e.m = nil
	e.replay = nil
}

// machines recycles simulation machines (reset in place) across every
// runner in the process. A lease applies its runner's sink, shards, batch
// mode, backend and the sweep's congestion tracking; release puts each
// back to its default, so a machine carries nothing from one runner to
// the next. One shared pool, rather than one per runner, keeps a
// long-lived process holding many runners (the simulation service keeps
// one per request seed and backend) from retaining a warm machine per
// runner.
var machines = sync.Pool{New: func() any { return machine.New() }}

// Option configures a Runner.
type Option func(*Runner)

// WithWorkers sets the number of concurrent workers (default GOMAXPROCS).
// One worker executes points strictly one at a time.
func WithWorkers(n int) Option {
	return func(r *Runner) {
		if n > 0 {
			r.workers = n
		}
	}
}

// Progress is a runner-level completion snapshot. Done/Total count every
// resolved point, whether simulated or served from the cache at enqueue
// time; DoneCost/TotalCost are the corresponding summed cost hints (see
// WithPointCost). HitCost is the portion of DoneCost that resolved as a
// cache hit — cost the run never spent wall-clock on. An ETA extrapolated
// from DoneCost alone would treat free hits as evidence of speed and
// predict near-zero remaining time on a warm cache; extrapolate from
// (DoneCost − HitCost) instead. On a fully cached run DoneCost − HitCost
// is zero: there is nothing to extrapolate from, and nothing left to
// predict.
type Progress struct {
	Done, Total         int
	DoneCost, TotalCost float64
	Hits                int
	HitCost             float64
}

// Fraction is the cost-weighted completion in [0, 1]. A run whose every
// point resolved at enqueue (TotalCost == 0 never happens once points
// exist, but a zero-cost hint sweep could produce it) counts as complete
// when all points are done.
func (p Progress) Fraction() float64 {
	if p.TotalCost <= 0 {
		if p.Total > 0 && p.Done >= p.Total {
			return 1
		}
		return 0
	}
	return p.DoneCost / p.TotalCost
}

// WithProgress installs a callback invoked with the runner's Progress
// after every resolved point. Besides point counts it carries the summed
// cost hints (see WithPointCost) of the finished and enqueued points: on
// sweeps whose point costs span orders of magnitude — the large-n
// conformance tail — the cost fraction is the honest completion
// estimate, where the raw point count would report a sweep "90% done"
// while the 2^20 point is still running. Points without a cost hint
// count as cost 1. Cache hits resolve at enqueue time and are reported
// immediately (a fully cached run still reaches Done == Total); use
// Progress.HitCost to keep them out of wall-clock extrapolations. Calls
// are serialized but arrive from worker goroutines.
func WithProgress(f func(p Progress)) Option {
	return func(r *Runner) { r.progress = f }
}

// WithLargestFirst makes the workers pick the pending point with the
// highest cost hint first (ties and unhinted points keep enqueue order).
// Sweeps enumerate problem sizes in increasing order, so under FIFO the
// most expensive points start *last* and the end of a run serializes on
// one worker grinding a multi-minute large-n point while the rest of the
// pool idles. Starting the heavy points first (longest-processing-time
// scheduling) overlaps them with the swarm of cheap points. Results are
// unaffected: rows are collected by point index and every point's RNG is
// derived from (seed, sweep, index), not from execution order.
func WithLargestFirst() Option {
	return func(r *Runner) { r.largestFirst = true }
}

// WithSink attaches a trace sink to every machine the runner leases out;
// the sink observes the messages of every point on every worker. With more
// than one worker the workers feed it concurrently, so pass a sink wrapped
// in trace.Synchronized (or run one worker). The runner does not close the
// sink.
func WithSink(s trace.Sink) Option {
	return func(r *Runner) { r.sink = s }
}

// WithShards executes every leased machine's parallel rounds across k
// shards (see machine.SetShards). Sharding changes wall-clock only: rows,
// metrics and trace streams are byte-identical for every k. k <= 1 keeps
// rounds sequential.
func WithShards(k int) Option {
	return func(r *Runner) { r.shards = k }
}

// WithBackend leases every machine with the given hardware backend applied
// (see machine.SetBackend): messages are costed on a finite W×H mesh or
// torus fabric instead of the ideal unbounded grid. The backend is
// deliberately NOT part of the per-point RNG seed — runs on
// different fabrics draw identical workloads, so backend comparisons
// measure the fabric, not a reshuffled input. It IS part of the simcache
// key (its canonical String form), so cached rows measured on different
// fabrics never alias. The backend is removed again (reset to Ideal) when
// a machine returns to the shared pool.
func WithBackend(b machine.Backend) Option {
	return func(r *Runner) { r.backend = b }
}

// WithBatchSends admits the counting-only fast path on leased machines
// (machine.SetBatchSends): data-oblivious algorithms — the sorting
// networks, the scans and the selection's predecessor counts — charge
// their messages on the counting kernel and keep payloads host-side (see
// machine.CountingOnly). The path stays off on machines
// that get a trace sink (WithSink, WithCriticalPathCheck) or a memory
// limit, so traced runs keep full register traffic.
func WithBatchSends() Option {
	return func(r *Runner) { r.batchSends = true }
}

// WithCriticalPathCheck makes every measurement self-verifying: each leased
// machine streams its events into a check that replays every PE's clock
// from them, so each message must extend a chain its sender holds, and at
// the end of every measurement the replayed counts, maxima and per-PE
// clocks must equal the machine's Metrics and Clock. A mismatch panics,
// which Sweep.Rows surfaces as a *PointPanic. The check holds O(touched
// PEs) state per in-flight point, and its sink keeps the machine off the
// counting-only path — a correctness harness, not a production mode.
func WithCriticalPathCheck() Option {
	return func(r *Runner) { r.cpCheck = true }
}

// WithCache consults a content-addressed result cache before running each
// sweep point. Hits are resolved at enqueue time: the point's rows come
// straight from the cache, it never enters the work queue, leases no
// machine, and skips critical-path verification (the rows were verified
// when first simulated and stored *after* that check passed — re-verifying
// would require re-simulating, which is the cost the cache exists to
// skip). Cost-weighted scheduling and deadlines therefore budget only the
// misses; progress callbacks still see the hits (resolved immediately,
// flagged via Progress.HitCost), so a warm run reports completion instead
// of silence. Misses run normally — WithCriticalPathCheck still fires on
// them — and their rows are stored once the point (and its verification)
// completes.
//
// Keys cover (sweep name, point index, runner seed, shards, batch,
// congestion, machine backend, code version), exactly the inputs that
// determine a point's rows; see simcache.Key. Every sweep is
// byte-deterministic in those inputs, so a hit is exact, not approximate.
func WithCache(c *simcache.Cache) Option {
	return func(r *Runner) { r.cache = c }
}

// WithCacheVersion overrides the code-version component of cache keys
// (default simcache.CodeVersion()). Tests use it to pin addresses;
// production runners should leave it alone.
func WithCacheVersion(v string) Option {
	return func(r *Runner) { r.cacheVersion = v }
}

// Runner executes sweeps on a bounded worker pool. Sweeps enqueued while
// others are still running share the same workers, so a driver can
// overlap several sweeps by calling Go for each and collecting Rows in
// order — and Go may be called from several goroutines at once, which is
// how the simulation service multiplexes jobs onto one pooled engine.
// Points run on internal workers.
type Runner struct {
	workers      int
	seed         int64
	progress     func(p Progress)
	sink         trace.Sink
	cpCheck      bool
	largestFirst bool
	shards       int
	batchSends   bool
	backend      machine.Backend
	backendStr   string
	cache        *simcache.Cache
	cacheVersion string

	mu        sync.Mutex
	queue     []task
	head      int
	running   int
	done      int
	total     int
	doneCost  float64
	totalCost float64
	hits      int
	hitCost   float64

	rowsSimulated atomic.Int64

	progressMu sync.Mutex
}

// New returns a runner whose point RNGs derive from seed.
func New(seed int64, opts ...Option) *Runner {
	r := &Runner{seed: seed, workers: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(r)
	}
	if r.workers < 1 {
		r.workers = 1
	}
	if r.cache != nil && r.cacheVersion == "" {
		r.cacheVersion = simcache.CodeVersion()
	}
	// Canonicalize once: cache keys always carry the String() form, so ""
	// and "ideal" (and any other spelling) address identically.
	r.backendStr = r.backend.String()
	return r
}

// Workers returns the configured worker count.
func (r *Runner) Workers() int { return r.workers }

// RowsSimulated reports how many rows the runner's points have actually
// produced by simulation — cache hits excluded. The service's /metrics
// endpoint exposes it next to the cache hit/miss counters.
func (r *Runner) RowsSimulated() int64 { return r.rowsSimulated.Load() }

// cacheKey builds the content address of one point of a sweep.
func (r *Runner) cacheKey(s *Sweep, idx int) simcache.Key {
	shards := r.shards
	if shards < 1 {
		shards = 1
	}
	return simcache.Key{
		Sweep:      s.name,
		Point:      idx,
		Seed:       r.seed,
		Shards:     shards,
		Batch:      r.batchSends,
		Congestion: s.cong,
		Machine:    r.backendStr,
		Version:    r.cacheVersion,
	}
}

// Sweep is a handle to an in-flight sweep; Rows blocks for its results.
type Sweep struct {
	name      string
	point     PointFunc
	cong      bool
	maxPoints int
	cost      func(i int) float64
	deadline  time.Time
	rows      [][]Row
	wg        sync.WaitGroup
	prog      func(done, total int, doneCost, totalCost float64)

	mu        sync.Mutex
	pan       *PointPanic
	skipped   int
	hits      int
	done      int
	total     int
	doneCost  float64
	totalCost float64

	progMu sync.Mutex
}

// SweepOption configures one sweep.
type SweepOption func(*Sweep)

// WithCongestion leases this sweep's machines with per-link congestion
// tracking enabled; tracking is removed again when a machine returns to
// the shared pool.
func WithCongestion() SweepOption {
	return func(s *Sweep) { s.cong = true }
}

// WithMaxPoints runs only the sweep's first k points (sweeps enumerate
// problem sizes in increasing order, so the cap drops the most expensive
// tail). The cap does not reseed: the points that run draw exactly the
// workloads they draw uncapped. k <= 0 or k beyond the point count runs
// every point.
func WithMaxPoints(k int) SweepOption {
	return func(s *Sweep) { s.maxPoints = k }
}

// WithPointCost attaches a relative cost hint to each point of the sweep
// (any monotone proxy for its expected wall-clock, e.g. n^1.5 for a
// sorting sweep). Costs drive WithLargestFirst scheduling and the cost
// fields of Progress; they never affect results. Without a hint every
// point costs 1.
func WithPointCost(f func(i int) float64) SweepOption {
	return func(s *Sweep) { s.cost = f }
}

// WithDeadline gives the sweep a wall-clock budget counted from enqueue.
// Points that have not *started* when the budget expires are skipped —
// they produce no rows and are counted by Skipped — so one oversized
// large-n tail cannot pin the whole run past its budget. Points already
// running are never interrupted (the simulator is not preemptible), so a
// run can overshoot the budget by at most its longest single point.
// Combine with WithLargestFirst so the heavy points start early rather
// than being the ones skipped. A truncated sweep is still deterministic
// in the rows it does produce (per-point RNGs), but *which* points run
// depends on machine speed — deadlines are a safety valve for scheduled
// runs, not for recorded-measurement reproduction.
func WithDeadline(d time.Duration) SweepOption {
	return func(s *Sweep) {
		if d > 0 {
			s.deadline = time.Now().Add(d)
		}
	}
}

// WithSweepProgress installs a per-sweep completion callback, invoked with
// this sweep's finished/enqueued point counts and summed cost hints every
// time one of its points resolves. Cache hits resolve at enqueue (so a
// fully cached sweep reports 100% immediately) and deadline-skipped points
// count as resolved — done always reaches total. Unlike the runner-level
// WithProgress, which aggregates every sweep on the pool, this is the
// honest per-job signal the simulation service streams to pollers. Calls
// arrive from worker goroutines (serialized per sweep).
func WithSweepProgress(f func(done, total int, doneCost, totalCost float64)) SweepOption {
	return func(s *Sweep) { s.prog = f }
}

// Skipped reports how many points were dropped by the sweep's deadline.
// Call it after Rows (it is racy while points are still in flight).
func (s *Sweep) Skipped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}

// CacheHits reports how many of the sweep's points were served from the
// runner's cache. Call it after Rows (it is racy while points are in
// flight).
func (s *Sweep) CacheHits() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits
}

// finishPoint advances the sweep-local progress accounting and fires the
// sweep's progress callback. The callback runs under progMu (not the state
// mutex, so it may call Skipped/CacheHits), which serializes calls and
// keeps their arguments monotone.
func (s *Sweep) finishPoint(cost float64) {
	s.progMu.Lock()
	defer s.progMu.Unlock()
	s.mu.Lock()
	s.done++
	s.doneCost += cost
	done, total := s.done, s.total
	doneCost, totalCost := s.doneCost, s.totalCost
	f := s.prog
	s.mu.Unlock()
	if f != nil {
		f(done, total, doneCost, totalCost)
	}
}

// PointPanic is the panic value re-raised by Rows when a point panicked on
// a worker. It carries the sweep name, point index, and the original panic
// value and stack.
type PointPanic struct {
	Sweep string
	Index int
	Value any
	Stack []byte
}

func (p *PointPanic) Error() string {
	return fmt.Sprintf("harness: sweep %q point %d panicked: %v\n%s", p.Sweep, p.Index, p.Value, p.Stack)
}

// Go enqueues a sweep of n points and returns immediately. The name keys
// the per-point RNG seeds, so renaming a sweep changes its workloads.
// With WithCache, points whose results are already stored resolve here —
// they never reach the queue, so scheduling and deadlines budget only the
// misses.
func (r *Runner) Go(name string, n int, point PointFunc, opts ...SweepOption) *Sweep {
	s := &Sweep{name: name, point: point}
	for _, o := range opts {
		o(s)
	}
	if s.maxPoints > 0 && s.maxPoints < n {
		n = s.maxPoints
	}
	s.rows = make([][]Row, n)
	costs := make([]float64, n)
	s.total = n
	for i := range costs {
		costs[i] = 1.0
		if s.cost != nil {
			costs[i] = s.cost(i)
		}
		s.totalCost += costs[i]
	}
	s.wg.Add(n)

	// Cache lookups happen before the queue lock: the disk backend may
	// touch files, and hits must not serialize the workers.
	hit := make([]bool, n)
	if r.cache != nil {
		for i := 0; i < n; i++ {
			if rows, ok := r.cache.Get(r.cacheKey(s, i)); ok {
				s.rows[i] = rows
				hit[i] = true
			}
		}
	}

	hitCount := 0
	r.mu.Lock()
	for i := 0; i < n; i++ {
		// Every point — hit or miss — counts toward runner-level progress;
		// hits resolve right here, so they advance done/doneCost too (and
		// are flagged in HitCost: zero wall-clock was spent on them, which
		// ETA extrapolation must know). Only misses enter the queue, so
		// scheduling and deadlines still budget just the real work.
		r.total++
		r.totalCost += costs[i]
		if hit[i] {
			hitCount++
			r.done++
			r.doneCost += costs[i]
			r.hits++
			r.hitCost += costs[i]
			continue
		}
		r.queue = append(r.queue, task{s: s, idx: i, cost: costs[i]})
	}
	// Workers park themselves when the queue drains; top the pool back up
	// to min(workers, pending).
	for r.running < r.workers && r.running < len(r.queue)-r.head {
		r.running++
		go r.work()
	}
	r.mu.Unlock()

	if hitCount > 0 {
		// One notification for the whole batch of enqueue-time hits: a
		// fully cached run reports Done == Total (and prints its final
		// progress line) instead of staying silent.
		r.notify()
	}

	for i := 0; i < n; i++ {
		if !hit[i] {
			continue
		}
		s.mu.Lock()
		s.hits++
		s.mu.Unlock()
		s.finishPoint(costs[i])
		s.wg.Done()
	}
	return s
}

// Rows waits until every point of the sweep has run and returns their rows
// flattened in point order. If a point panicked, Rows re-raises the first
// panic on the caller's goroutine as a *PointPanic.
func (s *Sweep) Rows() []Row {
	s.wg.Wait()
	if s.pan != nil {
		panic(s.pan)
	}
	rows := make([]Row, 0, len(s.rows))
	for _, rs := range s.rows {
		rows = append(rows, rs...)
	}
	return rows
}

type task struct {
	s    *Sweep
	idx  int
	cost float64
}

func (r *Runner) work() {
	for {
		r.mu.Lock()
		if r.head == len(r.queue) {
			r.queue = r.queue[:0]
			r.head = 0
			r.running--
			r.mu.Unlock()
			return
		}
		if r.largestFirst {
			// Longest-processing-time scheduling: swap the costliest pending
			// task to the head. O(pending) per pop against queues of at most
			// a few hundred points; ties keep enqueue (FIFO) order.
			best := r.head
			for i := r.head + 1; i < len(r.queue); i++ {
				if r.queue[i].cost > r.queue[best].cost {
					best = i
				}
			}
			r.queue[r.head], r.queue[best] = r.queue[best], r.queue[r.head]
		}
		t := r.queue[r.head]
		r.queue[r.head] = task{}
		r.head++
		r.mu.Unlock()
		t.run(r)
	}
}

func (t task) run(r *Runner) {
	s := t.s
	// Progress callbacks fire before the point counts as done, so a
	// caller returning from Rows has seen its final progress.
	defer s.wg.Done()
	defer r.tick(t.cost)
	defer s.finishPoint(t.cost)
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		s.mu.Lock()
		s.skipped++
		s.mu.Unlock()
		return
	}
	env := &Env{Rng: rand.New(rand.NewSource(pointSeed(r.seed, s.name, t.idx))), r: r, s: s, cong: s.cong}
	defer env.release()
	defer func() {
		if v := recover(); v != nil {
			s.mu.Lock()
			if s.pan == nil {
				s.pan = &PointPanic{Sweep: s.name, Index: t.idx, Value: v, Stack: debug.Stack()}
			}
			s.mu.Unlock()
		}
	}()
	s.rows[t.idx] = s.point(t.idx, env)
	// The point's final measurement ends here; check it before release
	// resets the machine (the recover above turns a mismatch into the
	// sweep's PointPanic).
	env.verify()
	r.rowsSimulated.Add(int64(len(s.rows[t.idx])))
	// Store only rows that passed verification: a panic above skips both
	// this Put and the row assignment it would have cached. Encode errors
	// (exotic cell types) just leave the point uncached.
	if r.cache != nil {
		_ = r.cache.Put(r.cacheKey(s, t.idx), s.rows[t.idx])
	}
}

func (r *Runner) tick(cost float64) {
	r.mu.Lock()
	r.done++
	r.doneCost += cost
	r.mu.Unlock()
	r.notify()
}

// snapshotLocked captures runner-level progress; callers hold r.mu.
func (r *Runner) snapshotLocked() Progress {
	return Progress{
		Done: r.done, Total: r.total,
		DoneCost: r.doneCost, TotalCost: r.totalCost,
		Hits: r.hits, HitCost: r.hitCost,
	}
}

// notify delivers the current progress to the installed callbacks. The
// snapshot is taken under progressMu, which serializes deliveries, so
// their arguments never go backwards and the last delivery sees the
// final counts. (A snapshot taken before acquiring progressMu could be
// delivered after a newer one.)
func (r *Runner) notify() {
	if r.progress == nil {
		return
	}
	r.progressMu.Lock()
	defer r.progressMu.Unlock()
	r.mu.Lock()
	p := r.snapshotLocked()
	r.mu.Unlock()
	r.progress(p)
}

// pointSeed derives a point's RNG seed from (base seed, sweep name, point
// index) with an FNV-1a mix. Stable across runs, platforms and worker
// counts.
func pointSeed(base int64, sweep string, idx int) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	h.Write([]byte(sweep))
	binary.LittleEndian.PutUint64(b[:], uint64(idx))
	h.Write(b[:])
	return int64(h.Sum64())
}
