package bounds

import (
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/harness"
)

// TestRegistryCoversTableI pins the headline result: every Table I row
// (primitive × metric) must have a registered claim with the canonical ID.
// Adding a primitive to Table I without a conformance claim fails here.
func TestRegistryCoversTableI(t *testing.T) {
	for _, prim := range TableIPrimitives {
		for _, m := range TableIMetrics {
			id := "table1/" + prim + "/" + string(m)
			c, ok := ByID(id)
			if !ok {
				t.Errorf("Table I row %s/%s has no claim %q", prim, m, id)
				continue
			}
			if c.Primitive != prim || c.Metric != m {
				t.Errorf("claim %s: Primitive/Metric = %s/%s, want %s/%s",
					id, c.Primitive, c.Metric, prim, m)
			}
			if c.Source == "" || c.Stated == "" {
				t.Errorf("claim %s: missing Source or Stated", id)
			}
		}
	}
}

func TestRegistryClaimsWellFormed(t *testing.T) {
	seen := make(map[string]bool)
	for _, c := range Registry() {
		if c.ID == "" {
			t.Fatalf("claim with empty ID: %+v", c)
		}
		if seen[c.ID] {
			t.Errorf("duplicate claim ID %q", c.ID)
		}
		seen[c.ID] = true
		if c.Sweep == "" || !strings.HasPrefix(c.Sweep, "bounds/") {
			t.Errorf("claim %s: sweep %q not under bounds/", c.ID, c.Sweep)
		}
		if c.Col <= 0 {
			t.Errorf("claim %s: Col %d must reference a value column (column 0 is n)", c.ID, c.Col)
		}
		switch c.Kind {
		case Exponent, TailExponent, ExponentAtMost:
			if c.Tol <= 0 {
				t.Errorf("claim %s: exponent kind needs Tol > 0", c.ID)
			}
		case ValueBounded:
			if c.Lo >= c.Hi {
				t.Errorf("claim %s: ValueBounded needs Lo < Hi (got [%v, %v])", c.ID, c.Lo, c.Hi)
			}
		case RatioGrows:
			if c.MinGain <= 0 {
				t.Errorf("claim %s: RatioGrows needs MinGain > 0", c.ID)
			}
		case Dominates, CrossoverBeyond:
			if c.Den <= 0 {
				t.Errorf("claim %s: %s needs a baseline Den column", c.ID, c.Kind)
			}
		case Polylog, Polynomial:
			// no numeric parameters
		default:
			t.Errorf("claim %s: unknown kind %q", c.ID, c.Kind)
		}
	}
}

// TestRegistrySweepsResolve checks every claim's sweep exists in the
// experiment sweep registry — in both quick and full variants — and that
// the referenced columns are inside the rows the sweep's first point
// produces. This is the wiring test between internal/bounds and
// internal/experiments; a renamed sweep or reordered column fails here,
// not at 2am in CI.
func TestRegistrySweepsResolve(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one simulator point per sweep")
	}
	for _, quick := range []bool{true, false} {
		reg := experiments.BoundSweeps(quick)
		for _, c := range Registry() {
			if _, ok := reg.Lookup(c.Sweep); !ok {
				t.Errorf("quick=%v: claim %s references unknown sweep %q", quick, c.ID, c.Sweep)
			}
		}
	}
	// Row width is invariant across points; probe each sweep's smallest
	// point once (quick registry — full points are minutes each).
	r := harness.New(1)
	reg := experiments.BoundSweeps(true)
	width := make(map[string]int)
	for _, c := range Registry() {
		w, probed := width[c.Sweep]
		if !probed {
			rows, err := reg.Run(r, c.Sweep, harness.WithMaxPoints(1))
			if err != nil || len(rows) == 0 {
				t.Fatalf("probing sweep %s: rows=%d err=%v", c.Sweep, len(rows), err)
			}
			w = len(rows[0])
			width[c.Sweep] = w
		}
		if c.Col >= w || c.Den >= w {
			t.Errorf("claim %s: Col=%d Den=%d out of range for %s rows (width %d)",
				c.ID, c.Col, c.Den, c.Sweep, w)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("no/such/claim"); ok {
		t.Error("ByID returned a claim for an unknown ID")
	}
	c, ok := ByID("table1/scan/energy")
	if !ok || c.Kind != Exponent {
		t.Errorf("ByID(table1/scan/energy) = %+v, %v", c, ok)
	}
}
