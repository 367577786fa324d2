package exhaustive

import (
	"context"
	"testing"

	"mube/internal/constraint"
	"mube/internal/opt"
	"mube/internal/opt/opttest"
	"mube/internal/schema"
)

func TestName(t *testing.T) {
	if (Solver{}).Name() != "exhaustive" {
		t.Errorf("Name = %q", Solver{}.Name())
	}
}

func TestFindsTrueOptimum(t *testing.T) {
	p := opttest.Problem(t, 2, constraint.Set{})
	sol, err := (Solver{}).Solve(context.Background(), p, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Verify by brute force over all pairs and singletons.
	e := opt.NewEvaluator(context.Background(), p, opt.Options{MaxEvals: -1})
	best := 0.0
	n := p.Universe.Len()
	for i := 0; i < n; i++ {
		if q := e.Eval([]schema.SourceID{schema.SourceID(i)}); q > best {
			best = q
		}
		for j := i + 1; j < n; j++ {
			ids := []schema.SourceID{schema.SourceID(i), schema.SourceID(j)}
			if q := e.Eval(ids); q > best {
				best = q
			}
		}
	}
	if sol.Quality < best-1e-12 {
		t.Errorf("exhaustive %.6f below true optimum %.6f", sol.Quality, best)
	}
}

func TestLimitRefusal(t *testing.T) {
	p := opttest.Problem(t, 6, constraint.Set{})
	if _, err := (Solver{Limit: 10}).Solve(context.Background(), p, opt.Options{}); err == nil {
		t.Error("tiny limit accepted a large space")
	}
}

func TestCountSubsets(t *testing.T) {
	cases := []struct{ n, m, want int }{
		{4, 0, 1},
		{4, 1, 5},  // 1 + 4
		{4, 2, 11}, // 1 + 4 + 6
		{4, 4, 16}, // 2^4
		{3, 9, 8},  // m > n clamps
		{0, 0, 1},
	}
	for _, c := range cases {
		if got := countSubsets(c.n, c.m); got != c.want {
			t.Errorf("countSubsets(%d,%d) = %d, want %d", c.n, c.m, got, c.want)
		}
	}
	// Saturation on huge spaces instead of overflow.
	if got := countSubsets(200, 100); got <= 0 {
		t.Errorf("saturated count = %d, want positive sentinel", got)
	}
}

func TestConstraintsReduceSpace(t *testing.T) {
	cons := constraint.Set{Sources: []schema.SourceID{0, 1}}
	p := opttest.Problem(t, 3, cons)
	sol, err := (Solver{}).Solve(context.Background(), p, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !cons.SatisfiedBy(sol.IDs) {
		t.Errorf("solution %v misses required sources", sol.IDs)
	}
	// Space is only the 10 optional singletons + empty = 11 subsets.
	if sol.Evals > 12 {
		t.Errorf("evaluated %d subsets, expected ≤ 12", sol.Evals)
	}
}
