// Package random implements pure random search — sampling feasible subsets
// uniformly and keeping the best. It is the floor any serious solver must
// beat and calibrates the solver-comparison experiment.
package random

import (
	"context"

	"mube/internal/opt"
	"mube/internal/schema"
)

// Solver is random search.
type Solver struct{}

// Name returns "random".
func (Solver) Name() string { return "random" }

// Solve samples random feasible subsets until the budget is exhausted or ctx
// is done.
func (s Solver) Solve(ctx context.Context, p *opt.Problem, opts opt.Options) (*opt.Solution, error) {
	opts = opts.WithDefaults()
	search, err := opt.NewSearch(ctx, p, opts)
	if err != nil {
		return nil, err
	}
	defer search.Release()
	span := search.BeginSolve(s.Name())
	var bestIDs []schema.SourceID
	bestQ := -1.0
	samples := opts.MaxEvals
	if samples < 0 {
		// Unlimited evaluation budget: bound by iterations instead.
		samples = opts.MaxIters
	}
	// Draw candidates in fixed-size chunks (all randomness here, in draw
	// order) and score each chunk as one batch. The chunk size is a
	// constant — independent of the worker count — so the candidate
	// sequence and the best-so-far scan never depend on parallelism.
	//
	// Random search deliberately uses the plain EvalBatch path, not the
	// delta API: its samples are independent draws with no base subset in
	// common, so no candidate is one flip from another and a delta batch
	// would image a base only to read it once. The evaluator's delta
	// bookkeeping must never engage here (asserted by a test).
	const chunk = 32
	for drawn := 0; drawn < samples && !search.Eval.Exhausted() && !search.Stopped(); {
		n := samples - drawn
		if n > chunk {
			n = chunk
		}
		// Clamp the chunk to the remaining evaluation budget so no candidate
		// is drawn only to come back unscored. Memo hits within the chunk may
		// still leave budget unspent after the batch; the outer loop's
		// Exhausted check settles that.
		if rem := search.Eval.Remaining(); rem >= 0 && n > rem {
			n = rem
		}
		if n == 0 {
			break
		}
		cands := make([][]schema.SourceID, n)
		for i := range cands {
			cands[i] = search.RandomSubset()
		}
		chunkQ := -1.0
		for i, q := range search.Eval.EvalBatch(cands) {
			if q > chunkQ {
				chunkQ = q
			}
			if q > bestQ {
				bestQ = q
				bestIDs = cands[i]
			}
		}
		drawn += n
		// One trace point per chunk: the chunk is this solver's iteration.
		search.TraceIter(s.Name(), drawn, chunkQ, bestQ)
	}
	if bestIDs == nil {
		bestIDs = search.RandomSubset()
	}
	sol := search.Eval.Solution(bestIDs, s.Name())
	span.End()
	return sol, nil
}
