package pso

import (
	"context"
	"testing"

	"mube/internal/constraint"
	"mube/internal/opt"
	"mube/internal/opt/opttest"
	"mube/internal/schema"
	"mube/internal/testutil"
)

func TestName(t *testing.T) {
	if (Solver{}).Name() != "pso" {
		t.Errorf("Name = %q", Solver{}.Name())
	}
}

func TestSolveFindsFeasibleSolution(t *testing.T) {
	cons := constraint.Set{Sources: []schema.SourceID{1}}
	p := opttest.Problem(t, 4, cons)
	sol, err := (Solver{}).Solve(context.Background(), p, opt.Options{Seed: 2, MaxEvals: 600})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible(sol.IDs) || !cons.SatisfiedBy(sol.IDs) {
		t.Errorf("solution %v", sol.IDs)
	}
	if len(sol.IDs) > 4 {
		t.Errorf("repair failed: %d sources with m=4", len(sol.IDs))
	}
	if sol.Solver != "pso" {
		t.Errorf("labeled %q", sol.Solver)
	}
}

func TestFullyConstrainedProblem(t *testing.T) {
	// Zero free slots: every particle's position repairs to the empty
	// optional set; the swarm must return exactly the required sources.
	p, cons := opttest.FullyConstrained(t)
	sol, err := (Solver{}).Solve(context.Background(), p, opt.Options{Seed: 1, MaxEvals: 100, MaxIters: 5})
	if err != nil {
		t.Fatal(err)
	}
	req := cons.RequiredSources()
	if len(sol.IDs) != len(req) {
		t.Fatalf("solution %v, want %v", sol.IDs, req)
	}
}

func TestSigmoidAndIndicator(t *testing.T) {
	if s := sigmoid(0); !testutil.AlmostEqual(s, 0.5) {
		t.Errorf("sigmoid(0) = %v", s)
	}
	if sigmoid(10) < 0.99 || sigmoid(-10) > 0.01 {
		t.Error("sigmoid saturation broken")
	}
	if !testutil.AlmostEqual(indicator(true, false), 1) || !testutil.AlmostEqual(indicator(false, true), -1) || indicator(true, true) != 0 {
		t.Error("indicator broken")
	}
}
