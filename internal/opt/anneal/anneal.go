// Package anneal implements constrained simulated annealing, one of the
// baseline solvers the paper compared against tabu search (§6). Moves are
// drawn from the feasibility-preserving neighborhood, so hard constraints
// are never violated; uphill moves are always taken and downhill moves are
// accepted with probability exp(Δ/T) under a geometric cooling schedule.
package anneal

import (
	"context"
	"math"

	"mube/internal/opt"
	"mube/internal/telemetry"
)

// Solver is simulated annealing.
type Solver struct{}

// The annealing schedule.
const (
	// t0 is the initial temperature: roughly the scale of a single QEF
	// swing, since Q(S) ∈ [0,1].
	t0 = 0.08
	// cooling is the geometric cooling factor applied each iteration.
	cooling = 0.97
	// movesPerTemp is the number of random moves attempted per temperature
	// step.
	movesPerTemp = 10
)

// Name returns "anneal".
func (Solver) Name() string { return "anneal" }

// Solve runs the annealing schedule within the options' budget; a done ctx
// stops the chain and returns best-so-far.
func (s Solver) Solve(ctx context.Context, p *opt.Problem, opts opt.Options) (*opt.Solution, error) {
	opts = opts.WithDefaults()
	search, err := opt.NewSearch(ctx, p, opts)
	if err != nil {
		return nil, err
	}
	defer search.Release()

	span := search.BeginSolve(s.Name())
	cur := search.NewSubset(search.StartSubset(p, opts))
	curQ := search.Eval.Eval(cur.IDs())
	bestIDs := cur.IDs()
	bestQ := curQ

	temp := t0
	noImprove := 0
	for iter := 0; iter < opts.MaxIters && noImprove < opts.Patience && !search.Eval.Exhausted() && !search.Stopped(); iter++ {
		for k := 0; k < movesPerTemp && !search.Stopped(); k++ {
			moves := search.Moves(cur, 4)
			if len(moves) == 0 {
				break
			}
			// The annealing chain is inherently sequential: each acceptance
			// mutates the state the next move is drawn from, so candidates
			// cannot be scored ahead of the RNG. Each accepted-or-rejected
			// move still flows through the shared batch API (a batch of one
			// evaluates in-line) so the memo and budget stay unified.
			mv := moves[search.Rand.Intn(len(moves))]
			q := search.EvalMoves(cur, []opt.Move{mv})[0]
			delta := q - curQ
			if delta >= 0 || search.Rand.Float64() < math.Exp(delta/math.Max(temp, 1e-9)) {
				cur.Apply(mv)
				curQ = q
			}
		}
		if curQ > bestQ {
			bestQ = curQ
			bestIDs = cur.IDs()
			noImprove = 0
		} else {
			noImprove++
		}
		search.TraceIter(s.Name(), iter, curQ, bestQ, telemetry.Float("temp", temp))
		temp *= cooling
	}
	sol := search.Eval.Solution(bestIDs, s.Name())
	span.End()
	return sol, nil
}
