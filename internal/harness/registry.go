package harness

import (
	"fmt"
	"sort"
)

// SweepSpec is a named, registrable sweep definition: everything Runner.Go
// needs, bundled so every driver (the conformance checker, the table
// renderer, the simulation service) invokes a sweep by name and measures
// the same points.
type SweepSpec struct {
	// Name keys both the registry lookup and the per-point RNG seeds.
	Name string
	// Points is the sweep's natural point count.
	Points int
	// Point computes one sweep point (see PointFunc).
	Point PointFunc
	// Cost, when non-nil, estimates point i's relative wall-clock (any
	// monotone proxy, e.g. the expected message count). It feeds
	// WithLargestFirst scheduling and weighted progress/ETA reporting;
	// it never affects measurements.
	Cost func(i int) float64
	// Opts are the sweep options applied on every run (e.g. WithCongestion).
	Opts []SweepOption
}

// Registry is a set of named sweeps. The zero value is ready to use.
// Register/lookup are not synchronized: populate the registry first, then
// share it read-only across goroutines.
type Registry struct {
	specs map[string]SweepSpec
}

// Register adds a spec; it fails on empty names, non-positive point
// counts, nil point funcs and duplicate names (re-registering under the
// same name is almost always a wiring bug worth surfacing).
func (g *Registry) Register(s SweepSpec) error {
	switch {
	case s.Name == "":
		return fmt.Errorf("harness: register: empty sweep name")
	case s.Points <= 0:
		return fmt.Errorf("harness: register %q: non-positive point count %d", s.Name, s.Points)
	case s.Point == nil:
		return fmt.Errorf("harness: register %q: nil point func", s.Name)
	}
	if _, dup := g.specs[s.Name]; dup {
		return fmt.Errorf("harness: register %q: duplicate sweep name", s.Name)
	}
	if g.specs == nil {
		g.specs = make(map[string]SweepSpec)
	}
	g.specs[s.Name] = s
	return nil
}

// MustRegister is Register for statically-known specs; it panics on error.
func (g *Registry) MustRegister(s SweepSpec) {
	if err := g.Register(s); err != nil {
		panic(err)
	}
}

// Names returns the registered sweep names, sorted.
func (g *Registry) Names() []string {
	names := make([]string, 0, len(g.specs))
	for n := range g.specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Lookup returns the spec registered under name.
func (g *Registry) Lookup(name string) (SweepSpec, bool) {
	s, ok := g.specs[name]
	return s, ok
}

// Go enqueues the spec on r with its registered options and cost hint,
// then opts (e.g. WithMaxPoints, WithDeadline, WithSweepProgress).
func (s SweepSpec) Go(r *Runner, opts ...SweepOption) *Sweep {
	all := s.Opts[:len(s.Opts):len(s.Opts)]
	if s.Cost != nil {
		all = append(all, WithPointCost(s.Cost))
	}
	return r.Go(s.Name, s.Points, s.Point, append(all, opts...)...)
}

// Go enqueues the named sweep on r and returns its handle, or an error for
// unknown names. The sweep seeds its points exactly as a hand-rolled
// Runner.Go with the same name would, so capping the point count
// (WithMaxPoints) does not change the workloads of the points that do run.
func (g *Registry) Go(r *Runner, name string, opts ...SweepOption) (*Sweep, error) {
	spec, ok := g.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("harness: unknown sweep %q (have %v)", name, g.Names())
	}
	return spec.Go(r, opts...), nil
}

// Run is Go followed by Rows: it executes the named sweep to completion
// and returns its rows in point order.
func (g *Registry) Run(r *Runner, name string, opts ...SweepOption) ([]Row, error) {
	s, err := g.Go(r, name, opts...)
	if err != nil {
		return nil, err
	}
	return s.Rows(), nil
}
