// Package sls implements stochastic local search — random-restart
// steepest-ascent hill climbing — one of the baseline solvers the paper
// compared against tabu search (§6).
package sls

import (
	"context"

	"mube/internal/opt"
	"mube/internal/schema"
)

// Solver is stochastic local search.
type Solver struct{}

// neighbors is the number of candidate moves sampled per step.
const neighbors = 30

// Name returns "sls".
func (Solver) Name() string { return "sls" }

// Solve climbs from random starting subsets, restarting at every local
// optimum, until the budget is exhausted or ctx is done (best-so-far is
// returned either way).
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
	iters := 0
	first := true
	for iters < opts.MaxIters && !search.Eval.Exhausted() && !search.Stopped() {
		start := search.RandomSubset()
		if first {
			// The first climb honors a warm start; restarts are random.
			start = search.StartSubset(p, opts)
			first = false
		}
		cur := search.NewSubset(start)
		curQ := search.Eval.Eval(cur.IDs())
		// Climb to a local optimum.
		for iters < opts.MaxIters && !search.Eval.Exhausted() && !search.Stopped() {
			iters++
			improved := false
			var stepMove opt.Move
			stepQ := curQ
			// Batch-score the sampled neighborhood; steepest-ascent selection
			// walks the results in move order, as the sequential loop did.
			moves := search.Moves(cur, neighbors)
			for mi, q := range search.EvalMoves(cur, moves) {
				if q > stepQ {
					stepQ = q
					stepMove = moves[mi]
					improved = true
				}
			}
			if improved {
				cur.Apply(stepMove)
				curQ = stepQ
			}
			traceBest := bestQ
			if curQ > traceBest {
				traceBest = curQ
			}
			search.TraceIter(s.Name(), iters, curQ, traceBest)
			if !improved {
				break // local optimum: restart
			}
		}
		if curQ > bestQ {
			bestQ = curQ
			bestIDs = cur.IDs()
		}
	}
	if bestIDs == nil {
		bestIDs = search.RandomSubset()
	}
	sol := search.Eval.Solution(bestIDs, s.Name())
	span.End()
	return sol, nil
}
