package solvers

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"mube/internal/constraint"
	"mube/internal/match"
	"mube/internal/opt"
	"mube/internal/opt/exhaustive"
	"mube/internal/qef"
	"mube/internal/schema"
	"mube/internal/testutil"
)

// problem builds the shared solver-test problem over the 12-source Books
// fixture.
func problem(t testing.TB, maxSources int, cons constraint.Set) *opt.Problem {
	t.Helper()
	u := testutil.BooksUniverse(t)
	matcher := match.MustNew(u, match.Config{Theta: 0.45})
	qefs := append(qef.MainQEFs(), qef.Characteristic{Char: "mttf", Agg: qef.WSum{}})
	q, err := qef.NewQuality(qefs, qef.Weights{
		qef.NameMatchQuality: 0.25,
		qef.NameCardinality:  0.25,
		qef.NameCoverage:     0.20,
		qef.NameRedundancy:   0.15,
		"mttf":               0.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &opt.Problem{
		Universe:    u,
		Matcher:     matcher,
		Quality:     q,
		MaxSources:  maxSources,
		Constraints: cons,
	}
}

func ids(ns ...int) []schema.SourceID {
	out := make([]schema.SourceID, len(ns))
	for i, n := range ns {
		out[i] = schema.SourceID(n)
	}
	return out
}

func TestRegistry(t *testing.T) {
	if Default().Name() != "tabu" {
		t.Errorf("default solver = %q, want tabu", Default().Name())
	}
	all := All()
	if len(all) != 5 || all[0].Name() != "tabu" {
		t.Errorf("All() = %d solvers, first %q", len(all), all[0].Name())
	}
	for _, s := range append(all, Exhaustive()) {
		got, err := ByName(s.Name())
		if err != nil || got.Name() != s.Name() {
			t.Errorf("ByName(%q) = %v, %v", s.Name(), got, err)
		}
	}
	if _, err := ByName("gradient-descent"); err == nil {
		t.Error("unknown solver accepted")
	}
}

// TestAllSolversProduceFeasibleSolutions runs every solver on a constrained
// problem and checks the §2.5 hard constraints hold on the output.
func TestAllSolversProduceFeasibleSolutions(t *testing.T) {
	cons := constraint.Set{
		Sources: ids(3),
		GAs: []schema.GA{schema.NewGA(
			schema.AttrRef{Source: 0, Attr: 0},
			schema.AttrRef{Source: 1, Attr: 0},
		)},
	}
	p := problem(t, 5, cons)
	for _, s := range append(All(), Exhaustive()) {
		sol, err := s.Solve(context.Background(), p, opt.Options{Seed: 11, MaxEvals: 500, MaxIters: 60, Patience: 15})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !p.Feasible(sol.IDs) {
			t.Errorf("%s: infeasible solution %v", s.Name(), sol.IDs)
		}
		if !cons.SatisfiedBy(sol.IDs) {
			t.Errorf("%s: constraints unsatisfied by %v", s.Name(), sol.IDs)
		}
		if sol.Quality < 0 || sol.Quality > 1 {
			t.Errorf("%s: quality %v out of range", s.Name(), sol.Quality)
		}
		if sol.Solver != s.Name() {
			t.Errorf("%s: solution labeled %q", s.Name(), sol.Solver)
		}
		if sol.MatchOK && !sol.Schema.Subsumes(schema.NewMediated(cons.GAs...)) {
			t.Errorf("%s: G ⋢ M in solution schema", s.Name())
		}
	}
}

// TestSolversNearOptimal compares each heuristic against the exhaustive
// oracle on a problem small enough to enumerate (m=2 over 12 sources: 79
// subsets). Every solver should find the exact optimum here; tabu gets the
// strictest check.
func TestSolversNearOptimal(t *testing.T) {
	p := problem(t, 2, constraint.Set{})
	oracle, err := Exhaustive().Solve(context.Background(), p, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Quality <= 0 {
		t.Fatalf("oracle quality %v", oracle.Quality)
	}
	for _, s := range All() {
		sol, err := s.Solve(context.Background(), p, opt.Options{Seed: 7, MaxEvals: 2000})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		slack := 0.05
		if s.Name() == "tabu" {
			slack = 0.01
		}
		if sol.Quality < oracle.Quality*(1-slack) {
			t.Errorf("%s: quality %.4f below oracle %.4f", s.Name(), sol.Quality, oracle.Quality)
		}
	}
}

func TestTabuBeatsOrMatchesRandom(t *testing.T) {
	p := problem(t, 4, constraint.Set{})
	budget := opt.Options{Seed: 3, MaxEvals: 300}
	tabuSol, err := Default().Solve(context.Background(), p, budget)
	if err != nil {
		t.Fatal(err)
	}
	randSol, err := ByNameMust(t, "random").Solve(context.Background(), p, budget)
	if err != nil {
		t.Fatal(err)
	}
	if tabuSol.Quality+1e-9 < randSol.Quality {
		t.Errorf("tabu %.4f worse than random %.4f at equal budget", tabuSol.Quality, randSol.Quality)
	}
}

// ByNameMust resolves a solver or fails the test.
func ByNameMust(t testing.TB, name string) opt.Solver {
	t.Helper()
	s, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSolversDeterministicPerSeed(t *testing.T) {
	p := problem(t, 3, constraint.Set{})
	for _, s := range All() {
		a, err := s.Solve(context.Background(), p, opt.Options{Seed: 42, MaxEvals: 400})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		b, err := s.Solve(context.Background(), p, opt.Options{Seed: 42, MaxEvals: 400})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !testutil.AlmostEqual(a.Quality, b.Quality) || len(a.IDs) != len(b.IDs) {
			t.Errorf("%s: runs with equal seed differ: %v/%v vs %v/%v",
				s.Name(), a.IDs, a.Quality, b.IDs, b.Quality)
		}
		for i := range a.IDs {
			if a.IDs[i] != b.IDs[i] {
				t.Errorf("%s: id sets differ: %v vs %v", s.Name(), a.IDs, b.IDs)
				break
			}
		}
	}
}

// TestSolversParallelMatchesSequential is the end-to-end determinism
// contract: for every solver (including the exhaustive oracle) and a fixed
// seed, a solve with the parallel evaluator (4 workers) returns exactly the
// same solution — IDs, Quality bit-for-bit, and Evals — as the sequential
// evaluator. All solver randomness stays on the solver goroutine and batch
// budget accounting resolves in candidate order, so the worker count must be
// unobservable in the results.
func TestSolversParallelMatchesSequential(t *testing.T) {
	cons := constraint.Set{Sources: ids(3)}
	p := problem(t, 5, cons)
	for _, s := range append(All(), Exhaustive()) {
		for _, seed := range []int64{1, 42} {
			base := opt.Options{Seed: seed, MaxEvals: 300, MaxIters: 40, Patience: 10}
			seqOpts := base
			seqOpts.Parallel = 1
			parOpts := base
			parOpts.Parallel = 4

			seq, err := s.Solve(context.Background(), p, seqOpts)
			if err != nil {
				t.Fatalf("%s seed %d sequential: %v", s.Name(), seed, err)
			}
			par, err := s.Solve(context.Background(), p, parOpts)
			if err != nil {
				t.Fatalf("%s seed %d parallel: %v", s.Name(), seed, err)
			}
			//mube:vet-ignore floatcmp — worker count must be unobservable bit-for-bit
			if par.Quality != seq.Quality {
				t.Errorf("%s seed %d: parallel quality %v != sequential %v",
					s.Name(), seed, par.Quality, seq.Quality)
			}
			if par.Evals != seq.Evals {
				t.Errorf("%s seed %d: parallel evals %d != sequential %d",
					s.Name(), seed, par.Evals, seq.Evals)
			}
			if len(par.IDs) != len(seq.IDs) {
				t.Errorf("%s seed %d: id sets differ: %v vs %v", s.Name(), seed, par.IDs, seq.IDs)
				continue
			}
			for i := range par.IDs {
				if par.IDs[i] != seq.IDs[i] {
					t.Errorf("%s seed %d: id sets differ: %v vs %v", s.Name(), seed, par.IDs, seq.IDs)
					break
				}
			}
		}
	}
}

func TestSolversRespectEvalBudget(t *testing.T) {
	p := problem(t, 4, constraint.Set{})
	for _, s := range All() {
		sol, err := s.Solve(context.Background(), p, opt.Options{Seed: 1, MaxEvals: 50})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		// Solution() may add one extra evaluation when re-deriving the
		// final subset after exhaustion.
		if sol.Evals > 51 {
			t.Errorf("%s: used %d evals with budget 50", s.Name(), sol.Evals)
		}
	}
}

// TestSolversCanceledContext: an already-dead context must stop every solver
// within its first evaluation batch, and the solver must still return a
// feasible best-so-far solution labeled StatusCanceled — never an error,
// never an infeasible or empty set when sources are required.
func TestSolversCanceledContext(t *testing.T) {
	cons := constraint.Set{Sources: ids(3)}
	p := problem(t, 5, cons)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range append(All(), Exhaustive()) {
		sol, err := s.Solve(ctx, p, opt.Options{Seed: 11, MaxEvals: 500, MaxIters: 60, Patience: 15})
		if err != nil {
			t.Fatalf("%s: canceled solve errored: %v", s.Name(), err)
		}
		if sol.Status != opt.StatusCanceled {
			t.Errorf("%s: status = %q, want %q", s.Name(), sol.Status, opt.StatusCanceled)
		}
		if !p.Feasible(sol.IDs) || !cons.SatisfiedBy(sol.IDs) {
			t.Errorf("%s: canceled solve returned infeasible %v", s.Name(), sol.IDs)
		}
		// Nothing was evaluated within budget, yet the reported quality must
		// be the subset's true Q(S), not the Unscored sentinel.
		if opt.Unscored(sol.Quality) || sol.Quality < 0 {
			t.Errorf("%s: canceled solve quality = %v", s.Name(), sol.Quality)
		}
	}
}

// TestSolversDeadlineStatus: an expired deadline is reported as
// StatusDeadline, distinct from a plain cancellation.
func TestSolversDeadlineStatus(t *testing.T) {
	p := problem(t, 3, constraint.Set{})
	ctx, cancel := context.WithDeadline(context.Background(), time.Time{}.AddDate(2000, 0, 0))
	defer cancel()
	<-ctx.Done()
	for _, s := range append(All(), Exhaustive()) {
		sol, err := s.Solve(ctx, p, opt.Options{Seed: 11, MaxEvals: 200})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if sol.Status != opt.StatusDeadline {
			t.Errorf("%s: status = %q, want %q", s.Name(), sol.Status, opt.StatusDeadline)
		}
	}
}

// TestSolversCancelMidSolve cancels from another goroutine while each solver
// is mid-search. Under -race this is the cancellation-path concurrency
// regression: the context check in EvalBatch and the Stopped() reads must not
// race with the worker pool, and whatever the interleaving, the result must
// be a feasible solution with an honest status.
func TestSolversCancelMidSolve(t *testing.T) {
	cons := constraint.Set{Sources: ids(3)}
	p := problem(t, 5, cons)
	for _, s := range append(All(), Exhaustive()) {
		for trial := 0; trial < 3; trial++ {
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				// Unsynchronized with the solve on purpose: the cancel lands
				// at an arbitrary point in the search.
				cancel()
				close(done)
			}()
			sol, err := s.Solve(ctx, p, opt.Options{Seed: int64(trial), MaxEvals: 2000, MaxIters: 200, Parallel: 4})
			<-done
			if err != nil {
				t.Fatalf("%s trial %d: %v", s.Name(), trial, err)
			}
			if !p.Feasible(sol.IDs) || !cons.SatisfiedBy(sol.IDs) {
				t.Errorf("%s trial %d: infeasible %v after mid-solve cancel", s.Name(), trial, sol.IDs)
			}
			if sol.Status != opt.StatusCanceled && sol.Status != opt.StatusCompleted && sol.Status != opt.StatusExhausted {
				t.Errorf("%s trial %d: unexpected status %q", s.Name(), trial, sol.Status)
			}
			if opt.Unscored(sol.Quality) {
				t.Errorf("%s trial %d: unscored quality in final solution", s.Name(), trial)
			}
		}
	}
}

// TestSolversCompletedStatus: an unconstrained, uncanceled solve ends
// completed (or budget-exhausted when the budget bites) — never canceled.
func TestSolversCompletedStatus(t *testing.T) {
	p := problem(t, 3, constraint.Set{})
	for _, s := range All() {
		sol, err := s.Solve(context.Background(), p, opt.Options{Seed: 2, MaxEvals: 5000, MaxIters: 30, Patience: 8})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if sol.Status != opt.StatusCompleted && sol.Status != opt.StatusExhausted {
			t.Errorf("%s: status = %q on a clean solve", s.Name(), sol.Status)
		}
	}
}

func TestExhaustiveRejectsHugeSpaces(t *testing.T) {
	p := problem(t, 9, constraint.Set{})
	// With a tiny enumeration limit, exhaustive must refuse instead of
	// silently truncating the search.
	if sol, err := (exhaustive.Solver{Limit: 1}).Solve(context.Background(), p, opt.Options{}); err == nil {
		t.Errorf("exhaustive with limit 1 should refuse, got %v", sol.IDs)
	}
}

func TestExhaustiveHonorsConstraints(t *testing.T) {
	cons := constraint.Set{Sources: ids(5)}
	p := problem(t, 2, cons)
	sol, err := Exhaustive().Solve(context.Background(), p, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range sol.IDs {
		if id == 5 {
			found = true
		}
	}
	if !found {
		t.Errorf("exhaustive solution %v misses required source 5", sol.IDs)
	}
}

// TestBaselineSolversPinned pins what the four baseline solvers return on one
// seeded problem: their IDs, the bits of Q and the evaluations spent. Their
// hyperparameters (anneal's schedule, the swarm's size and coefficients, the
// climb's neighbourhood) are package constants, so a change to how a solver
// reads them must leave every value here unchanged.
func TestBaselineSolversPinned(t *testing.T) {
	p := problem(t, 5, constraint.Set{Sources: ids(3)})
	opts := opt.Options{Seed: 17, MaxEvals: 400, MaxIters: 60, Patience: 15}
	want := []struct {
		solver string
		ids    string
		qBits  uint64
		evals  int
	}{
		{"anneal", "[0 3 4 6 11]", 0x3fe8df2aa886d738, 134}, // 0.7772420207536248
		{"pso", "[1 3 4 7 11]", 0x3fe9399eb62e1813, 141},    // 0.7882836874202915
		{"sls", "[1 3 4 7 11]", 0x3fe9399eb62e1813, 336},
		{"random", "[0 1 3 4 11]", 0x3fe9342e69942754, 229}, // 0.7876197874149775
	}
	for _, w := range want {
		sol, err := ByNameMust(t, w.solver).Solve(context.Background(), p, opts)
		if err != nil {
			t.Fatalf("%s: %v", w.solver, err)
		}
		if got := fmt.Sprint(sol.IDs); got != w.ids {
			t.Errorf("%s: IDs = %s, want %s", w.solver, got, w.ids)
		}
		if got := math.Float64bits(sol.Quality); got != w.qBits {
			t.Errorf("%s: Q = %v (bits %#x), want bits %#x", w.solver, sol.Quality, got, w.qBits)
		}
		if sol.Evals != w.evals {
			t.Errorf("%s: evals = %d, want %d", w.solver, sol.Evals, w.evals)
		}
	}
}
