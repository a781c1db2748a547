package bounds

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/harness"
)

// Options configures a conformance run.
type Options struct {
	// MaxPoints caps every sweep's point count (0 = no cap). The quick/full
	// split is chosen when building the sweep registry
	// (experiments.BoundSweeps); this cap composes with it (see
	// harness.WithMaxPoints). Per-point progress reporting comes from
	// harness.WithProgress on the runner.
	MaxPoints int
	// Deadline is a per-sweep wall-clock budget (0 = none): points of a
	// sweep that have not started when its budget expires are skipped and
	// reported in the sweep's stats (see harness.WithDeadline for the
	// exact semantics). Claims then evaluate on the points that did run —
	// a safety valve for scheduled full runs, where a too-slow machine
	// should produce a truncated-but-honest report instead of hanging.
	Deadline time.Duration
}

// SweepStat records how one named sweep ran: how many rows it produced
// and how many points its deadline skipped. Emitted into the JSON report
// so scheduled-run artifacts are self-describing about their coverage.
type SweepStat struct {
	Name    string `json:"name"`
	Rows    int    `json:"rows"`
	Skipped int    `json:"skipped,omitempty"`
}

// Report is the structured outcome of one conformance run.
type Report struct {
	Verdicts []Verdict   `json:"verdicts"`
	Sweeps   []SweepStat `json:"sweeps"`
}

// Failures counts failed claims.
func (r Report) Failures() int {
	n := 0
	for _, v := range r.Verdicts {
		if !v.Pass {
			n++
		}
	}
	return n
}

// Passed reports whether every claim held.
func (r Report) Passed() bool { return r.Failures() == 0 }

// Skipped counts sweep points dropped by the per-sweep deadline across
// the whole run.
func (r Report) Skipped() int {
	n := 0
	for _, s := range r.Sweeps {
		n += s.Skipped
	}
	return n
}

// Filter keeps the claims whose ID starts with prefix, in their order
// (the -run flag of boundcheck and the daemon's boundcheck jobs). An empty
// prefix keeps every claim; a prefix matching none returns nil.
func Filter(claims []Claim, prefix string) []Claim {
	var kept []Claim
	for _, c := range claims {
		if strings.HasPrefix(c.ID, prefix) {
			kept = append(kept, c)
		}
	}
	return kept
}

// SweepNames lists the sweeps the claims read, each once, in claim order.
func SweepNames(claims []Claim) []string {
	var names []string
	seen := make(map[string]bool)
	for _, c := range claims {
		if !seen[c.Sweep] {
			seen[c.Sweep] = true
			names = append(names, c.Sweep)
		}
	}
	return names
}

// SweepRun is one executed sweep as a report needs it: its rows and how
// many points its deadline skipped.
type SweepRun struct {
	Rows    []harness.Row
	Skipped int
}

// Assemble evaluates the claims against their sweeps' runs, keyed by
// sweep name, and builds the report: verdicts in claim order, sweep stats
// sorted by name.
func Assemble(claims []Claim, runs map[string]SweepRun) Report {
	rep := Report{Sweeps: make([]SweepStat, 0, len(runs)), Verdicts: make([]Verdict, 0, len(claims))}
	for name, run := range runs {
		rep.Sweeps = append(rep.Sweeps, SweepStat{Name: name, Rows: len(run.Rows), Skipped: run.Skipped})
	}
	sort.Slice(rep.Sweeps, func(i, j int) bool { return rep.Sweeps[i].Name < rep.Sweeps[j].Name })
	for _, c := range claims {
		rep.Verdicts = append(rep.Verdicts, c.Eval(runs[c.Sweep].Rows))
	}
	return rep
}

// Check runs every claim's sweep through the runner and evaluates the
// claims against the measurements. Distinct sweeps are enqueued up front
// so they overlap across the runner's workers; each sweep runs once no
// matter how many claims read it. An unknown sweep name is a wiring error,
// not a failed claim.
func Check(r *harness.Runner, reg *harness.Registry, claims []Claim, opt Options) (Report, error) {
	names := SweepNames(claims)
	handles := make([]*harness.Sweep, len(names))
	for i, name := range names {
		s, err := reg.Go(r, name, harness.WithMaxPoints(opt.MaxPoints), harness.WithDeadline(opt.Deadline))
		if err != nil {
			return Report{}, fmt.Errorf("bounds: %w", err)
		}
		handles[i] = s
	}
	runs := make(map[string]SweepRun, len(names))
	for i, s := range handles {
		runs[names[i]] = SweepRun{Rows: s.Rows(), Skipped: s.Skipped()}
	}
	return Assemble(claims, runs), nil
}
