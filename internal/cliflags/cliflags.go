// Package cliflags registers the flag set shared by the repo's CLIs
// (boundcheck, spatialbench, spatiald, spatialtune), so the pool-,
// seed-, timeout- and cache-related flags keep one name, one default
// and one help string everywhere. Each helper registers its flags on
// the caller's FlagSet and returns the parsed values' home, so the
// CLIs stay plain flag-package programs.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/simcache"
)

// Pool holds the worker-pool sizing flags (-parallel/-shards/-batch).
// The knobs change wall-clock only: sweep rows are byte-identical for
// any setting at a fixed seed (see internal/machine), so they exist to
// attribute regressions and speedups, not to change results.
type Pool struct {
	Parallel int
	Shards   int
	Batch    bool
}

// AddPool registers -parallel, -shards and -batch on fs.
func AddPool(fs *flag.FlagSet) *Pool {
	p := &Pool{}
	fs.IntVar(&p.Parallel, "parallel", runtime.GOMAXPROCS(0), "worker goroutines for sweep points")
	fs.IntVar(&p.Shards, "shards", runtime.GOMAXPROCS(0), "intra-simulation shards per machine: parallel-round delivery and counting-kernel lanes (1 = sequential; output is identical for any value)")
	fs.BoolVar(&p.Batch, "batch", true, "admit the counting-only fast path for data-oblivious sweeps (sorting networks, scans and predecessor counts, with no trace sink or memory limit; output is identical)")
	return p
}

// HarnessOptions renders the pool flags as harness options, in the
// order every CLI applied them before the flags moved here.
func (p *Pool) HarnessOptions() []harness.Option {
	opts := []harness.Option{harness.WithWorkers(p.Parallel)}
	if p.Shards > 1 {
		opts = append(opts, harness.WithShards(p.Shards))
	}
	if p.Batch {
		opts = append(opts, harness.WithBatchSends())
	}
	return opts
}

// MachineBackend holds the -backend flag: the hardware model sweep
// machines charge message costs on. Finite backends fold the unbounded
// virtual grid onto a W×H fabric (see internal/machine); results are
// identical under every backend, only the cost metrics change.
type MachineBackend struct {
	Spec string
}

// AddBackend registers -backend on fs.
func AddBackend(fs *flag.FlagSet) *MachineBackend {
	b := &MachineBackend{}
	fs.StringVar(&b.Spec, "backend", "ideal",
		"machine backend: ideal, mesh:WxH[:block] or torus:WxH[:block] (folds the grid onto a finite fabric; costs change, results don't)")
	return b
}

// Parse validates the spec via machine.ParseBackend.
func (b *MachineBackend) Parse() (machine.Backend, error) {
	return machine.ParseBackend(b.Spec)
}

// AddSeed registers the workload-generation -seed flag.
func AddSeed(fs *flag.FlagSet) *int64 {
	return fs.Int64("seed", 1, "random seed for workload generation")
}

// AddTimeout registers the per-sweep -timeout budget.
func AddTimeout(fs *flag.FlagSet) *time.Duration {
	return fs.Duration("timeout", 0, "per-sweep wall-clock budget; unstarted points are skipped (0 = none)")
}

// AddServer registers -server with a command-specific usage string
// (the daemon's role differs per client: boundcheck ships whole
// conformance runs, spatialbench single sweeps).
func AddServer(fs *flag.FlagSet, usage string) *string {
	return fs.String("server", "", usage)
}

// Cache holds the content-addressed result-cache flag (-cache). Dir is
// empty when the flag was not given.
type Cache struct {
	Dir string
}

// AddCache registers -cache on fs. usage overrides the standard help
// string when non-empty (spatiald's cache is in-memory by default, so
// its flag reads differently).
func AddCache(fs *flag.FlagSet, usage string) *Cache {
	if usage == "" {
		usage = "directory for the content-addressed result cache (reruns serve hits instead of simulating)"
	}
	c := &Cache{}
	fs.StringVar(&c.Dir, "cache", "", usage)
	return c
}

// Backend opens the on-disk backend, or returns nil when no -cache
// directory was given (spatiald then runs an in-memory cache).
func (c *Cache) Backend() (simcache.Backend, error) {
	if c.Dir == "" {
		return nil, nil
	}
	return simcache.Dir(c.Dir)
}

// Open returns the unbounded cache the one-shot CLIs attach via
// harness.WithCache, or nil when -cache was not given.
func (c *Cache) Open() (*simcache.Cache, error) {
	backend, err := c.Backend()
	if err != nil || backend == nil {
		return nil, err
	}
	return simcache.New(backend, 0), nil
}

// ReportStats writes the post-run hit/miss line the caching CLIs
// share; no-op for a nil cache. Stats belong on stderr only: stdout
// must stay byte-identical between cold and warm runs.
func (c *Cache) ReportStats(w io.Writer, prog string, cache *simcache.Cache) {
	if cache == nil {
		return
	}
	st := cache.Stats()
	fmt.Fprintf(w, "%s: cache: %d hits, %d misses, %d stored (dir %s)\n",
		prog, st.Hits, st.Misses, st.Stores, c.Dir)
}

// ProgressLine returns the runner option that draws the progress line the
// CLIs share on w (stderr): resolved points, the cost-weighted fraction,
// the cached count and an ETA. The line is redrawn in place and ended
// once every point has resolved.
func ProgressLine(w io.Writer) harness.Option {
	start := time.Now()
	return harness.WithProgress(func(p harness.Progress) {
		fmt.Fprint(w, progressLine(p, time.Since(start)))
	})
}

// progressLine renders one redraw of the progress line after elapsed
// wall-clock. Cache hits cost no simulation time, so the ETA extrapolates
// from simulated cost only (Done−Hit over Total−Hit); an all-hit run
// prints 100% and no ETA instead of dividing by zero.
func progressLine(p harness.Progress, elapsed time.Duration) string {
	line := fmt.Sprintf("\r%d/%d points (%3.0f%% of est. cost", p.Done, p.Total, 100*p.Fraction())
	if p.Hits > 0 {
		line += fmt.Sprintf(", %d cached", p.Hits)
	}
	if done, total := p.DoneCost-p.HitCost, p.TotalCost-p.HitCost; done > 0 && total > done {
		eta := time.Duration(float64(elapsed) * (total - done) / done)
		line += ", ETA " + eta.Round(time.Second).String()
	}
	line += ")"
	if p.Done == p.Total {
		line += "\n"
	}
	return line
}
