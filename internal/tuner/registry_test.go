package tuner_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/simcache"
	"repro/internal/tuner"
)

// TestTuneAfterRegistryRunIsAllHits: Tune runs the sweep that
// experiments.BoundSweeps registers, so after a registry run of
// bounds/tuned-<w> on one cache every point of the tune is a hit, and the
// verdict carries the registry's tuned and baseline EDP columns.
func TestTuneAfterRegistryRunIsAllHits(t *testing.T) {
	cache := simcache.New(nil, 0)
	runner := func() *harness.Runner {
		return harness.New(1, harness.WithWorkers(2), harness.WithCache(cache), harness.WithCacheVersion("t"))
	}
	reg := experiments.BoundSweeps(true)
	for _, w := range tuner.Workloads() {
		rows, err := reg.Run(runner(), "bounds/tuned-"+w.Name)
		if err != nil {
			t.Fatal(err)
		}
		before := cache.Stats()
		res := tuner.Tune(runner(), true, w)[0]
		after := cache.Stats()
		if misses, hits := after.Misses-before.Misses, after.Hits-before.Hits; misses != 0 || hits != int64(len(rows)) {
			t.Errorf("%s: tune after the registry run had %d hits, %d misses; want %d hits, 0 misses",
				w.Name, hits, misses, len(rows))
		}
		if len(res.Sizes) != len(rows) {
			t.Fatalf("%s: %d sizes from %d rows", w.Name, len(res.Sizes), len(rows))
		}
		for i, sz := range res.Sizes {
			base, _ := tuner.Baseline(sz.Candidates)
			if sz.N != rows[i][0] || sz.MinEDP.EDP() != rows[i][1] || base.EDP() != rows[i][2] {
				t.Errorf("%s n=%d: verdict (n, tuned EDP, baseline EDP) = (%d, %v, %v), registry row %v",
					w.Name, sz.N, sz.N, sz.MinEDP.EDP(), base.EDP(), rows[i][:3])
			}
		}
	}
}
