package harness

import (
	"strings"
	"testing"
)

func identityPoint(i int, env *Env) []Row {
	// Draw from the point RNG so runs are seed-sensitive like real sweeps.
	return One(i, env.Rng.Int63())
}

func TestRegistryRegisterValidation(t *testing.T) {
	var g Registry
	cases := []struct {
		name string
		spec SweepSpec
		want string
	}{
		{"empty-name", SweepSpec{Points: 1, Point: identityPoint}, "empty sweep name"},
		{"zero-points", SweepSpec{Name: "s", Point: identityPoint}, "non-positive point count"},
		{"nil-func", SweepSpec{Name: "s", Points: 1}, "nil point func"},
	}
	for _, c := range cases {
		if err := g.Register(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
	if err := g.Register(SweepSpec{Name: "s", Points: 2, Point: identityPoint}); err != nil {
		t.Fatalf("valid register failed: %v", err)
	}
	if err := g.Register(SweepSpec{Name: "s", Points: 2, Point: identityPoint}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate register err = %v", err)
	}
}

func TestRegistryRunByName(t *testing.T) {
	var g Registry
	g.MustRegister(SweepSpec{Name: "reg/a", Points: 4, Point: identityPoint})
	g.MustRegister(SweepSpec{Name: "reg/b", Points: 2, Point: identityPoint})

	if got := g.Names(); len(got) != 2 || got[0] != "reg/a" || got[1] != "reg/b" {
		t.Errorf("Names = %v", got)
	}

	r := New(1, WithWorkers(2))
	rows, err := g.Run(r, "reg/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for i, row := range rows {
		if row[0].(int) != i {
			t.Errorf("row %d out of order: %v", i, row)
		}
	}

	if _, err := g.Run(r, "no-such-sweep"); err == nil || !strings.Contains(err.Error(), "unknown sweep") {
		t.Errorf("unknown sweep err = %v", err)
	}
}

// TestRegistryMaxPoints: a capped run executes a prefix of the full run
// with byte-identical per-point results (the cap must not reseed points).
func TestRegistryMaxPoints(t *testing.T) {
	var g Registry
	g.MustRegister(SweepSpec{Name: "reg/capped", Points: 5, Point: identityPoint})

	r := New(7, WithWorkers(3))
	full, err := g.Run(r, "reg/capped")
	if err != nil {
		t.Fatal(err)
	}
	capped, err := g.Run(r, "reg/capped", WithMaxPoints(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 3 {
		t.Fatalf("capped run has %d rows, want 3", len(capped))
	}
	for i, row := range capped {
		if row[1] != full[i][1] {
			t.Errorf("point %d: capped RNG draw %v != full run's %v", i, row[1], full[i][1])
		}
	}
	// Out-of-range and non-positive caps mean "all points".
	for _, k := range []int{0, -1, 99} {
		rows, err := g.Run(r, "reg/capped", WithMaxPoints(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 5 {
			t.Errorf("WithMaxPoints(%d): %d rows, want 5", k, len(rows))
		}
	}
}
