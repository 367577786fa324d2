package solvers

import (
	"context"
	"math"
	"testing"

	"mube/internal/constraint"
	"mube/internal/opt"
	"mube/internal/opt/anneal"
	"mube/internal/opt/exhaustive"
	"mube/internal/opt/random"
	"mube/internal/opt/sls"
	"mube/internal/opt/tabu"
	"mube/internal/telemetry"
)

// TestDeltaPathDifferential checks every solver's production scoring path —
// incremental counting-union flips and cluster-sharded match scores — against
// the from-scratch oracle: Solution.Quality must equal opt.Score(p, sol.IDs),
// which re-scores the chosen set from a fresh context with the whole-set
// Sharded.Score (itself pinned to the unsharded kernel inside package
// match), down to the float bits. Runs with a required source over 3 seeds
// and both 1 and 4 evaluator workers.
func TestDeltaPathDifferential(t *testing.T) {
	p := problem(t, 4, constraint.Set{Sources: ids(3)})
	for _, s := range append(All(), Exhaustive()) {
		for _, seed := range []int64{1, 2, 3} {
			for _, workers := range []int{1, 4} {
				opts := opt.Options{
					Seed: seed, MaxEvals: 400, MaxIters: 30, Patience: 8,
					Parallel: workers,
				}
				sol, err := s.Solve(context.Background(), p, opts)
				if err != nil {
					t.Fatalf("%s: %v", s.Name(), err)
				}
				want, err := opt.Score(p, sol.IDs)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(sol.Quality) != math.Float64bits(want) {
					t.Errorf("%s seed=%d workers=%d: solution quality %v != opt.Score %v for %v",
						s.Name(), seed, workers, sol.Quality, want, sol.IDs)
				}
			}
		}
	}
}

// TestDeltaPathEngages guards the point of the optimization: on a plain
// local-search run the incremental paths must actually carry most of the
// computed evaluations (every single-flip neighborhood candidate), not
// silently fall back to full re-merges.
func TestDeltaPathEngages(t *testing.T) {
	p := problem(t, 4, constraint.Set{})
	for _, s := range []opt.Solver{tabu.Solver{}, sls.Solver{}, anneal.Solver{}} {
		rec := telemetry.New(nil)
		opts := opt.Options{Seed: 5, MaxEvals: 300, MaxIters: 20, Patience: 6, Recorder: rec}
		if _, err := s.Solve(context.Background(), p, opts); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		snap := rec.Snapshot()
		hits, computed := snap.Counter("eval.delta_hits"), snap.Counter("eval.computed")
		if computed == 0 {
			t.Fatalf("%s: no evaluations computed", s.Name())
		}
		if hits*2 < computed {
			t.Errorf("%s: delta paths carried %d of %d computed evals; expected a majority",
				s.Name(), hits, computed)
		}
	}
}

// TestRandomSolverStaysOnPlainPath pins the routing of the solvers that
// score whole subsets: random's samples and exhaustive's enumeration share no
// base subset, so both must use the plain batch path and the delta
// bookkeeping must never engage — no delta hits, no counting merges.
func TestRandomSolverStaysOnPlainPath(t *testing.T) {
	p := problem(t, 4, constraint.Set{})
	for _, s := range []opt.Solver{random.Solver{}, exhaustive.Solver{}} {
		rec := telemetry.New(nil)
		opts := opt.Options{Seed: 5, MaxEvals: 200, MaxIters: 20, Recorder: rec}
		if _, err := s.Solve(context.Background(), p, opts); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		snap := rec.Snapshot()
		if n := snap.Counter("eval.delta_hits"); n != 0 {
			t.Errorf("%s engaged the delta path %d times; want 0", s.Name(), n)
		}
		if n := snap.Counter("pcsa.counting_merges"); n != 0 {
			t.Errorf("%s performed %d counting merges; want 0", s.Name(), n)
		}
		if snap.Counter("eval.computed") == 0 {
			t.Errorf("%s: no evaluations computed", s.Name())
		}
	}
}
