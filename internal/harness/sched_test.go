package harness

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/simcache"
)

func TestWithLargestFirstOrder(t *testing.T) {
	// One worker, costs increasing with index: LPT must pop the points in
	// strictly decreasing cost order, while the rows still come back in
	// point order.
	var mu sync.Mutex
	var order []int
	r := New(1, WithWorkers(1), WithLargestFirst())
	s := r.Go("sched/lpt", 4, func(i int, env *Env) []Row {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
		return One(i, env.Rng.Int63())
	}, WithPointCost(func(i int) float64 { return float64(i) }))
	rows := s.Rows()
	if want := []int{3, 2, 1, 0}; !reflect.DeepEqual(order, want) {
		t.Errorf("execution order = %v, want %v (largest cost first)", order, want)
	}
	for i, row := range rows {
		if row[0].(int) != i {
			t.Errorf("row %d out of order: %v (scheduling must not reorder results)", i, row)
		}
	}
}

func TestWithLargestFirstTiesKeepFIFO(t *testing.T) {
	// Unhinted points all cost 1: LPT degenerates to plain FIFO.
	var mu sync.Mutex
	var order []int
	r := New(1, WithWorkers(1), WithLargestFirst())
	r.Go("sched/ties", 4, func(i int, env *Env) []Row {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
		return One(i)
	}).Rows()
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(order, want) {
		t.Errorf("execution order = %v, want FIFO %v on tied costs", order, want)
	}
}

func TestWithDeadlineSkipsUnstartedPoints(t *testing.T) {
	// One worker, the first point overruns the sweep budget: every point
	// that has not started when it expires is skipped, not interrupted.
	r := New(1, WithWorkers(1))
	s := r.Go("sched/deadline", 5, func(i int, env *Env) []Row {
		time.Sleep(300 * time.Millisecond)
		return One(i)
	}, WithDeadline(100*time.Millisecond))
	rows := s.Rows()
	if got := s.Skipped(); got+len(rows) != 5 {
		t.Errorf("skipped %d + %d rows != 5 points", got, len(rows))
	}
	// The worker is busy for 300ms > 100ms budget, so at most the first
	// point (started before expiry) produced rows.
	if got := s.Skipped(); got < 4 {
		t.Errorf("skipped = %d, want >= 4", got)
	}
	for _, row := range rows {
		if row[0].(int) != 0 {
			t.Errorf("unexpected row from point %v after deadline", row[0])
		}
	}
}

func TestWithDeadlineZeroMeansNone(t *testing.T) {
	r := New(1, WithWorkers(2))
	s := r.Go("sched/nodeadline", 4, func(i int, env *Env) []Row {
		return One(i)
	}, WithDeadline(0))
	if rows := s.Rows(); len(rows) != 4 || s.Skipped() != 0 {
		t.Errorf("zero deadline skipped points: %d rows, %d skipped", len(rows), s.Skipped())
	}
}

// TestWithWeightedProgress: the progress callback carries the summed cost
// hints of the finished and enqueued points, so the cost fraction reaches
// 1 exactly when the last point finishes.
func TestWithWeightedProgress(t *testing.T) {
	ch := make(chan Progress, 8)
	r := New(1, WithWorkers(2), WithProgress(func(p Progress) {
		ch <- p
	}))
	r.Go("sched/weighted", 3, func(i int, env *Env) []Row {
		return One(i)
	}, WithPointCost(func(i int) float64 { return float64(int(1) << uint(i)) })).Rows()
	// Each point ticks the runner, delivering its callback synchronously,
	// before it counts as done, so all 3 callbacks are queued once Rows
	// returns.
	if n := len(ch); n != 3 {
		t.Fatalf("%d progress callbacks queued when Rows returned, want 3", n)
	}
	var last Progress
	for i := 0; i < 3; i++ {
		last = <-ch
	}
	if last.Done != 3 || last.Total != 3 {
		t.Errorf("final progress %d/%d, want 3/3", last.Done, last.Total)
	}
	if last.DoneCost != 7 || last.TotalCost != 7 {
		t.Errorf("final cost progress %v/%v, want 7/7 (1+2+4)", last.DoneCost, last.TotalCost)
	}
	if last.Hits != 0 || last.HitCost != 0 {
		t.Errorf("uncached run reported hits: %d (%v cost)", last.Hits, last.HitCost)
	}
	if last.Fraction() != 1 {
		t.Errorf("final Fraction() = %v, want 1", last.Fraction())
	}
}

// TestProgressCountsCacheHits: enqueue-time cache hits must still advance
// runner-level progress (Done, DoneCost) and be flagged via Hits/HitCost —
// a fully warm run previously produced no progress callbacks at all.
func TestProgressCountsCacheHits(t *testing.T) {
	cache := simcache.New(nil, 0)
	point := func(i int, env *Env) []Row { return One(i) }
	cost := WithPointCost(func(i int) float64 { return float64(i + 1) })

	cold := New(1, WithWorkers(2), WithCache(cache))
	cold.Go("sched/hits", 3, point, cost).Rows()

	ch := make(chan Progress, 8)
	warm := New(1, WithWorkers(2), WithCache(cache), WithProgress(func(p Progress) {
		ch <- p
	}))
	warm.Go("sched/hits", 3, point, cost).Rows()
	var last Progress
	select {
	case last = <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("warm all-hit run produced no progress callback")
	}
	for {
		select {
		case last = <-ch:
			continue
		default:
		}
		break
	}
	if last.Done != 3 || last.Total != 3 || last.Hits != 3 {
		t.Errorf("warm progress = %+v, want Done=Total=Hits=3", last)
	}
	if last.HitCost != 6 || last.DoneCost != 6 {
		t.Errorf("warm cost progress = %+v, want HitCost=DoneCost=6", last)
	}
	if last.Fraction() != 1 {
		t.Errorf("warm Fraction() = %v, want 1", last.Fraction())
	}
}

// TestRegistryMaxPointsPrefixProperty: for every cap k and any worker
// count or scheduling policy, the capped run's rows are byte-identical to
// the first k points of the uncapped run — the property the conformance
// checker's -maxpoints cap and the nightly/quick split both lean on.
func TestRegistryMaxPointsPrefixProperty(t *testing.T) {
	const points = 6
	spec := SweepSpec{
		Name:   "reg/prefix-prop",
		Points: points,
		Cost:   func(i int) float64 { return float64(points - i) }, // reversed costs: LPT runs backwards
		Point: func(i int, env *Env) []Row {
			// Multi-cell rows drawn from the point RNG: any reseeding or
			// cross-point stream sharing shows up as a cell mismatch.
			return One(i, env.Rng.Int63(), env.Rng.Float64(), env.Rng.Int63())
		},
	}

	baseline := func() []Row {
		var g Registry
		g.MustRegister(spec)
		rows, err := g.Run(New(11, WithWorkers(1)), spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}()

	for _, workers := range []int{1, 3, 8} {
		for _, lpt := range []bool{false, true} {
			for k := 1; k <= points; k++ {
				var g Registry
				g.MustRegister(spec)
				opts := []Option{WithWorkers(workers)}
				if lpt {
					opts = append(opts, WithLargestFirst())
				}
				rows, err := g.Run(New(11, opts...), spec.Name, WithMaxPoints(k))
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) != k {
					t.Fatalf("workers=%d lpt=%v k=%d: got %d rows", workers, lpt, k, len(rows))
				}
				if !reflect.DeepEqual(rows, baseline[:k]) {
					t.Errorf("workers=%d lpt=%v k=%d: capped rows differ from uncapped prefix\n got %v\nwant %v",
						workers, lpt, k, rows, baseline[:k])
				}
			}
		}
	}
}
