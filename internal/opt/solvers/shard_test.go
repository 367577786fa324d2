package solvers

import (
	"bytes"
	"math"
	"testing"

	"mube/internal/constraint"
	"mube/internal/opt"
	"mube/internal/opt/anneal"
	"mube/internal/opt/sls"
	"mube/internal/opt/tabu"
	"mube/internal/schema"
)

// TestShardPathDifferential checks the cluster-sharded matching path at the
// solver level, under a constraint that fuses match shards: source 3 is
// required and a GA pins its title (attr 0) to source 4's writer (attr 1),
// two names that sit in different base shards at θ = 0.45. For every
// local-search solver, across 3 seeds, Solution.Quality must equal the
// opt.Score oracle, whose whole-set path is sharded too but shares no flip
// machinery, down to the float bits, and the run with flips scored
// concurrently on 4 evaluator workers must be bit-identical to the 1-worker
// run — Quality, IDs, Evals, Status, and JSONL trace bytes. The shard
// decomposition itself, overlay fusion included, is pinned to the unsharded
// kernel inside package match.
func TestShardPathDifferential(t *testing.T) {
	p := problem(t, 4, constraint.Set{
		Sources: ids(3),
		GAs: []schema.GA{schema.NewGA(
			schema.AttrRef{Source: 3, Attr: 0},
			schema.AttrRef{Source: 4, Attr: 1})},
	})
	solvers := []opt.Solver{tabu.Solver{}, sls.Solver{}, anneal.Solver{}}
	for _, s := range solvers {
		for _, seed := range []int64{1, 2, 3} {
			base := opt.Options{Seed: seed, MaxEvals: 400, MaxIters: 30, Patience: 8}
			seqOpts := base
			seqOpts.Parallel = 1
			parOpts := base
			parOpts.Parallel = 4
			seqSol, seqTrace := solveTraced(t, s, p, seqOpts)
			parSol, parTrace := solveTraced(t, s, p, parOpts)

			label := s.Name()
			want, err := opt.Score(p, seqSol.IDs)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(seqSol.Quality) != math.Float64bits(want) {
				t.Errorf("%s seed=%d: solution quality %v != opt.Score %v for %v",
					label, seed, seqSol.Quality, want, seqSol.IDs)
			}
			if math.Float64bits(parSol.Quality) != math.Float64bits(seqSol.Quality) {
				t.Errorf("%s seed=%d: 4-worker quality %v != 1-worker %v",
					label, seed, parSol.Quality, seqSol.Quality)
			}
			if parSol.Evals != seqSol.Evals {
				t.Errorf("%s seed=%d: 4-worker evals %d != 1-worker %d",
					label, seed, parSol.Evals, seqSol.Evals)
			}
			if parSol.Status != seqSol.Status {
				t.Errorf("%s seed=%d: 4-worker status %v != 1-worker %v",
					label, seed, parSol.Status, seqSol.Status)
			}
			if len(parSol.IDs) != len(seqSol.IDs) {
				t.Errorf("%s seed=%d: id sets differ: %v vs %v",
					label, seed, parSol.IDs, seqSol.IDs)
			} else {
				for i := range parSol.IDs {
					if parSol.IDs[i] != seqSol.IDs[i] {
						t.Errorf("%s seed=%d: id sets differ: %v vs %v",
							label, seed, parSol.IDs, seqSol.IDs)
						break
					}
				}
			}
			if !bytes.Equal(parTrace, seqTrace) {
				t.Errorf("%s seed=%d: trace bytes differ between 1 and 4 workers",
					label, seed)
			}
		}
	}
}
