// Package exhaustive enumerates every feasible subset and returns the true
// optimum. It is only tractable for small universes and serves as the test
// oracle against which the heuristic solvers are validated.
package exhaustive

import (
	"context"
	"fmt"

	"mube/internal/opt"
	"mube/internal/schema"
)

// Solver is exact enumeration.
type Solver struct {
	// Limit caps the number of subsets the solver will enumerate before
	// giving up with an error. Default 2 000 000.
	Limit int
}

// DefaultLimit bounds the enumeration.
const DefaultLimit = 2_000_000

// Name returns "exhaustive".
func (Solver) Name() string { return "exhaustive" }

// Solve enumerates all subsets S with C ⊆ S and |S| ≤ m and returns the
// best. A done ctx abandons the walk and returns the best subset scored so
// far (Status records the interruption — the result is then not a certified
// optimum).
func (s Solver) Solve(ctx context.Context, p *opt.Problem, opts opt.Options) (*opt.Solution, error) {
	if s.Limit == 0 {
		s.Limit = DefaultLimit
	}
	// Exhaustive search needs no evaluation cap: budget by subset count.
	opts = opts.WithDefaults()
	opts.MaxEvals = s.Limit + 1
	search, err := opt.NewSearch(ctx, p, opts)
	if err != nil {
		return nil, err
	}
	defer search.Release()
	free := search.MaxSources - len(search.Required)
	total := countSubsets(len(search.Optional), free)
	if total > s.Limit {
		return nil, fmt.Errorf("exhaustive: %d candidate subsets exceed limit %d", total, s.Limit)
	}
	span := search.BeginSolve(s.Name())

	// Enumerate in DFS order but score in fixed-size batches: the buffer
	// preserves enumeration order, so the strict-improvement scan selects
	// the same optimum (first among ties) as the sequential walk, while the
	// evaluator fans each flush out to its worker pool.
	const flush = 64
	var bestIDs []schema.SourceID
	bestQ := -1.0
	scanned := 0
	cands := make([][]schema.SourceID, 0, flush)
	score := func() {
		flushQ := -1.0
		for i, q := range search.Eval.EvalBatch(cands) {
			if q > flushQ {
				flushQ = q
			}
			if q > bestQ {
				bestQ = q
				bestIDs = cands[i]
			}
		}
		scanned += len(cands)
		if len(cands) > 0 {
			// One trace point per flushed batch; iter counts subsets scanned.
			search.TraceIter(s.Name(), scanned, flushQ, bestQ)
		}
		cands = cands[:0]
	}
	pick := make([]schema.SourceID, 0, free)
	var walk func(start, remaining int)
	walk = func(start, remaining int) {
		if search.Stopped() {
			return
		}
		ids := append(append([]schema.SourceID(nil), search.Required...), pick...)
		cands = append(cands, opt.SortIDs(ids))
		if len(cands) == flush {
			score()
		}
		if remaining == 0 {
			return
		}
		for i := start; i < len(search.Optional) && !search.Stopped(); i++ {
			pick = append(pick, search.Optional[i])
			walk(i+1, remaining-1)
			pick = pick[:len(pick)-1]
		}
	}
	walk(0, free)
	score()
	if bestIDs == nil {
		// Canceled before any subset scored: fall back to the first
		// enumerated candidate (required sources only), which is feasible.
		bestIDs = opt.SortIDs(append([]schema.SourceID(nil), search.Required...))
	}
	sol := search.Eval.Solution(bestIDs, s.Name())
	span.End()
	return sol, nil
}

// countSubsets returns Σ_{k=0..m} C(n,k), saturating at a large sentinel to
// avoid overflow.
func countSubsets(n, m int) int {
	if m > n {
		m = n
	}
	total := 0
	c := 1 // C(n,0)
	for k := 0; k <= m; k++ {
		total += c
		if total > DefaultLimit*10 || total < 0 {
			return DefaultLimit * 10
		}
		// C(n,k+1) = C(n,k)·(n−k)/(k+1)
		c = c * (n - k) / (k + 1)
	}
	return total
}
