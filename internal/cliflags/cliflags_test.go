package cliflags

import (
	"bytes"
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/simcache"
)

func newFS() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// TestPoolFlags: defaults parse, overrides land, and the harness option
// list shrinks when sharding/batching are off (shards=1 and -batch=false
// must not register their options).
func TestPoolFlags(t *testing.T) {
	fs := newFS()
	p := AddPool(fs)
	if err := fs.Parse([]string{"-parallel", "3", "-shards", "1", "-batch=false"}); err != nil {
		t.Fatal(err)
	}
	if p.Parallel != 3 || p.Shards != 1 || p.Batch {
		t.Fatalf("parsed pool %+v", p)
	}
	if got := len(p.HarnessOptions()); got != 1 {
		t.Errorf("shards=1 batch=false yields %d options, want 1 (workers only)", got)
	}
	p.Shards, p.Batch = 4, true
	if got := len(p.HarnessOptions()); got != 3 {
		t.Errorf("shards=4 batch=true yields %d options, want 3", got)
	}
}

// TestCacheFlag: no -cache means no cache and no stats line; a directory
// opens an on-disk backend; stats render with the directory.
func TestCacheFlag(t *testing.T) {
	fs := newFS()
	c := AddCache(fs, "")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if cache, err := c.Open(); err != nil || cache != nil {
		t.Fatalf("empty -cache opened %v, %v", cache, err)
	}
	var buf bytes.Buffer
	c.ReportStats(&buf, "prog", nil)
	if buf.Len() != 0 {
		t.Errorf("nil cache reported stats: %q", buf.String())
	}

	fs = newFS()
	c = AddCache(fs, "")
	if err := fs.Parse([]string{"-cache", t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	cache, err := c.Open()
	if err != nil || cache == nil {
		t.Fatalf("Open: %v, %v", cache, err)
	}
	c.ReportStats(&buf, "prog", cache)
	if !strings.Contains(buf.String(), "prog: cache: 0 hits") {
		t.Errorf("stats line: %q", buf.String())
	}
}

// TestSharedScalarFlags: seed, timeout and server register under their
// canonical names with the canonical defaults.
func TestSharedScalarFlags(t *testing.T) {
	fs := newFS()
	seed := AddSeed(fs)
	timeout := AddTimeout(fs)
	server := AddServer(fs, "daemon URL")
	if err := fs.Parse([]string{"-seed", "9", "-timeout", "2s", "-server", "host:1"}); err != nil {
		t.Fatal(err)
	}
	if *seed != 9 || timeout.Seconds() != 2 || *server != "host:1" {
		t.Errorf("parsed seed=%d timeout=%v server=%q", *seed, *timeout, *server)
	}
}

// TestProgressLine drives the shared progress line through a runner: an
// all-hit run prints 100% with no ETA and ends its line; a partly
// simulated run prints an ETA while simulated points remain.
func TestProgressLine(t *testing.T) {
	cache := simcache.New(nil, 0)
	point := func(i int, env *harness.Env) []harness.Row { return harness.One(i) }
	run := func(points int) string {
		var buf bytes.Buffer
		r := harness.New(1, harness.WithWorkers(1), harness.WithCache(cache), harness.WithCacheVersion("t"), ProgressLine(&buf))
		r.Go("progress", points, point).Rows()
		return buf.String()
	}
	run(2) // warm points 0 and 1

	if got := run(2); got != "\r2/2 points (100% of est. cost, 2 cached)\n" {
		t.Errorf("all-hit run drew %q", got)
	}
	partial := run(4)
	if !strings.Contains(partial, "\r3/4 points ( 75% of est. cost, 2 cached, ETA ") {
		t.Errorf("partly simulated run drew no ETA after its first simulated point: %q", partial)
	}
	if !strings.HasSuffix(partial, "\r4/4 points (100% of est. cost, 2 cached)\n") {
		t.Errorf("partly simulated run did not end on a complete line: %q", partial)
	}

	// The ETA extrapolates from simulated cost only: 2 of 7 simulated cost
	// units took 10 s, so 5 remain at 5 s each.
	p := harness.Progress{Done: 3, Total: 4, DoneCost: 3, TotalCost: 8, Hits: 1, HitCost: 1}
	if got, want := progressLine(p, 10*time.Second), "\r3/4 points ( 38% of est. cost, 1 cached, ETA 25s)"; got != want {
		t.Errorf("progressLine = %q, want %q", got, want)
	}
}
