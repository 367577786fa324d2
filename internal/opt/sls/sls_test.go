package sls

import (
	"context"
	"testing"

	"mube/internal/constraint"
	"mube/internal/opt"
	"mube/internal/opt/opttest"
)

func TestName(t *testing.T) {
	if (Solver{}).Name() != "sls" {
		t.Errorf("Name = %q", Solver{}.Name())
	}
}

func TestSolveFindsFeasibleSolution(t *testing.T) {
	p := opttest.Problem(t, 4, constraint.Set{})
	sol, err := (Solver{}).Solve(context.Background(), p, opt.Options{Seed: 2, MaxEvals: 400})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible(sol.IDs) || sol.Quality <= 0 {
		t.Errorf("solution %v q=%v", sol.IDs, sol.Quality)
	}
	if sol.Solver != "sls" {
		t.Errorf("labeled %q", sol.Solver)
	}
}

func TestRestartsImproveOverSingleClimb(t *testing.T) {
	p := opttest.Problem(t, 3, constraint.Set{})
	// A tiny-iteration run (one climb at most) vs a long multi-restart run.
	short, err := (Solver{}).Solve(context.Background(), p, opt.Options{Seed: 4, MaxEvals: 60, MaxIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	long, err := (Solver{}).Solve(context.Background(), p, opt.Options{Seed: 4, MaxEvals: 3000, MaxIters: 200})
	if err != nil {
		t.Fatal(err)
	}
	if long.Quality+1e-9 < short.Quality {
		t.Errorf("longer search got worse: %.4f vs %.4f", long.Quality, short.Quality)
	}
}

func TestFullyConstrainedProblem(t *testing.T) {
	p, cons := opttest.FullyConstrained(t)
	sol, err := (Solver{}).Solve(context.Background(), p, opt.Options{Seed: 1, MaxEvals: 50, MaxIters: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !cons.SatisfiedBy(sol.IDs) || len(sol.IDs) != 3 {
		t.Errorf("solution %v", sol.IDs)
	}
}

func TestLocalOptimumIsStable(t *testing.T) {
	// After SLS terminates, no sampled single move from the returned
	// solution should improve it dramatically (sanity on the climb logic;
	// sampled neighborhoods make this probabilistic, so allow slack).
	p := opttest.Problem(t, 3, constraint.Set{})
	sol, err := (Solver{}).Solve(context.Background(), p, opt.Options{Seed: 6, MaxEvals: 4000, MaxIters: 300})
	if err != nil {
		t.Fatal(err)
	}
	search, err := opt.NewSearch(context.Background(), p, opt.Options{Seed: 99, MaxEvals: -1})
	if err != nil {
		t.Fatal(err)
	}
	cur := search.NewSubset(sol.IDs)
	curQ := search.Eval.Eval(cur.IDs())
	improved := 0.0
	for _, q := range search.EvalMoves(cur, search.Moves(cur, 60)) {
		if q > curQ+0.02 {
			improved = q
		}
	}
	if improved > 0 {
		t.Errorf("returned solution q=%.4f has neighbor q=%.4f (not near-locally-optimal)", curQ, improved)
	}
}
