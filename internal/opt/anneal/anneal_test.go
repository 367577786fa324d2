package anneal

import (
	"context"
	"testing"

	"mube/internal/constraint"
	"mube/internal/opt"
	"mube/internal/opt/opttest"
	"mube/internal/schema"
)

func TestName(t *testing.T) {
	if (Solver{}).Name() != "anneal" {
		t.Errorf("Name = %q", Solver{}.Name())
	}
}

func TestSolveFindsFeasibleSolution(t *testing.T) {
	cons := constraint.Set{Sources: []schema.SourceID{5}}
	p := opttest.Problem(t, 4, cons)
	sol, err := (Solver{}).Solve(context.Background(), p, opt.Options{Seed: 2, MaxEvals: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible(sol.IDs) || !cons.SatisfiedBy(sol.IDs) {
		t.Errorf("solution %v", sol.IDs)
	}
	if sol.Solver != "anneal" {
		t.Errorf("labeled %q", sol.Solver)
	}
}

func TestBestEverIsReturned(t *testing.T) {
	// Annealing wanders; the returned solution must be the best recorded,
	// not the final state. Verify monotonicity under a longer budget.
	p := opttest.Problem(t, 4, constraint.Set{})
	short, err := (Solver{}).Solve(context.Background(), p, opt.Options{Seed: 8, MaxEvals: 60, MaxIters: 5})
	if err != nil {
		t.Fatal(err)
	}
	long, err := (Solver{}).Solve(context.Background(), p, opt.Options{Seed: 8, MaxEvals: 2000, MaxIters: 300})
	if err != nil {
		t.Fatal(err)
	}
	if long.Quality+1e-9 < short.Quality {
		t.Errorf("longer annealing got worse: %.4f vs %.4f", long.Quality, short.Quality)
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
