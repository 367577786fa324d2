// Package tabu implements µBE's default solver (§6): tabu search, a
// combinatorial optimization algorithm that remembers its recent path
// through the search space and declares recently touched moves tabu for a
// number of iterations, forcing the search out of local optima while
// bounding search time. The paper found tabu search more robust and
// higher-quality than stochastic local search, simulated annealing, and
// particle swarm optimization on this problem.
//
// User constraints define permanently tabu regions: required sources can
// never be dropped and the size cap m can never be exceeded — such moves are
// simply never generated.
package tabu

import (
	"context"

	"mube/internal/opt"
	"mube/internal/schema"
	"mube/internal/telemetry"
)

// Solver is a configured tabu search.
type Solver struct {
	// Tenure is the number of iterations a touched source stays tabu.
	// Default 8.
	Tenure int
	// Neighbors is the number of candidate moves sampled per iteration.
	// Default 30.
	Neighbors int
}

// Defaults for the solver's zero fields.
const (
	DefaultTenure    = 8
	DefaultNeighbors = 30
)

// Name returns "tabu".
func (Solver) Name() string { return "tabu" }

// Solve runs tabu search within the options' budget and returns the best
// solution found. A canceled or expired ctx stops the search within one
// evaluation batch and returns best-so-far.
func (s Solver) Solve(ctx context.Context, p *opt.Problem, opts opt.Options) (*opt.Solution, error) {
	if s.Tenure == 0 {
		s.Tenure = DefaultTenure
	}
	if s.Neighbors == 0 {
		s.Neighbors = DefaultNeighbors
	}
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

	// tabuUntil[id] = first iteration at which moves touching id are
	// admissible again.
	tabuUntil := make(map[schema.SourceID]int)
	noImprove := 0

	for iter := 0; iter < opts.MaxIters && noImprove < opts.Patience && !search.Eval.Exhausted() && !search.Stopped(); iter++ {
		// Intensification: after half the patience without improvement,
		// jump back to the best solution found and clear the tabu list, so
		// the remaining budget explores the elite neighborhood instead of
		// drifting.
		if noImprove == opts.Patience/2 && noImprove > 0 {
			cur = search.NewSubset(bestIDs)
			curQ = bestQ
			tabuUntil = make(map[schema.SourceID]int)
		}
		moves := search.Moves(cur, s.Neighbors)
		// Score the whole sampled neighborhood as one batch: the moves are
		// independent, so their Q(S') values fan out to the evaluator's
		// worker pool while selection below stays in deterministic order.
		qs := search.EvalMoves(cur, moves)
		bestMove := opt.NoMove
		bestMoveQ := -1.0
		for mi, mv := range moves {
			q := qs[mi]
			tabu := isTabu(tabuUntil, mv, iter)
			// Aspiration criterion: a tabu move that beats the best-ever
			// solution is always admissible.
			if tabu && q <= bestQ {
				continue
			}
			if q > bestMoveQ {
				bestMoveQ = q
				bestMove = mv
			}
		}
		if bestMove == opt.NoMove {
			// Entire sampled neighborhood is tabu; age the list by one
			// iteration and resample.
			noImprove++
			search.TraceIter(s.Name(), iter, curQ, bestQ,
				telemetry.Int("tenure", s.Tenure),
				telemetry.Int("tabu_active", tabuActive(tabuUntil, iter)))
			continue
		}

		// Tabu search's hallmark: take the best admissible move even when
		// it worsens the current solution.
		cur.Apply(bestMove)
		curQ = bestMoveQ
		if bestMove.Add >= 0 {
			tabuUntil[bestMove.Add] = iter + s.Tenure
		}
		if bestMove.Drop >= 0 {
			tabuUntil[bestMove.Drop] = iter + s.Tenure
		}

		if curQ > bestQ {
			bestQ = curQ
			bestIDs = cur.IDs()
			noImprove = 0
		} else {
			noImprove++
		}
		search.TraceIter(s.Name(), iter, curQ, bestQ,
			telemetry.Int("tenure", s.Tenure),
			telemetry.Int("tabu_active", tabuActive(tabuUntil, iter)))
	}
	sol := search.Eval.Solution(bestIDs, s.Name())
	span.End()
	return sol, nil
}

// tabuActive counts the sources still tabu after iter's update, for the
// iteration trace.
func tabuActive(tabuUntil map[schema.SourceID]int, iter int) int {
	n := 0
	for _, until := range tabuUntil {
		if until > iter {
			n++
		}
	}
	return n
}

// isTabu reports whether mv touches a source that is still tabu at iter.
func isTabu(tabuUntil map[schema.SourceID]int, mv opt.Move, iter int) bool {
	if mv.Add >= 0 && tabuUntil[mv.Add] > iter {
		return true
	}
	if mv.Drop >= 0 && tabuUntil[mv.Drop] > iter {
		return true
	}
	return false
}
