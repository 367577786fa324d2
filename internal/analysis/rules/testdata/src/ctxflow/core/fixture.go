// Package fixture exercises the solver-loop cancellation contract against
// the real internal/opt evaluator API (type-checked, never executed).
package fixture

import (
	"context"

	"mube/internal/opt"
	"mube/internal/schema"
)

// goodDirect tests ctx.Err every iteration.
func goodDirect(ctx context.Context, e *opt.Evaluator, ids []schema.SourceID) float64 {
	best := 0.0
	for i := 0; i < 100; i++ {
		if ctx.Err() != nil {
			break
		}
		if q := e.Eval(ids); q > best {
			best = q
		}
	}
	return best
}

// goodStopped relies on Search.Stopped in the loop condition, the way the
// in-tree solvers do.
func goodStopped(s *opt.Search, cur *opt.Subset, n int) {
	for iter := 0; iter < n && !s.Stopped(); iter++ {
		moves := s.Moves(cur, 4)
		_ = s.EvalMoves(cur, moves)
	}
}

// goodHelper checks through an in-package helper the summary table follows.
func goodHelper(ctx context.Context, e *opt.Evaluator, ids []schema.SourceID) {
	for i := 0; i < 10; i++ {
		if stopped(ctx) {
			return
		}
		e.Eval(ids)
	}
}

func stopped(ctx context.Context) bool { return ctx.Err() != nil }

// goodSelect drains ctx.Done inside the loop.
func goodSelect(ctx context.Context, e *opt.Evaluator, batches [][][]schema.SourceID) {
	for _, b := range batches {
		select {
		case <-ctx.Done():
			return
		default:
		}
		e.EvalBatch(b)
	}
}

// noEval never touches the evaluator; plain compute loops need no check.
func noEval(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// badLoop burns evaluation budget with no way to stop it.
func badLoop(ctx context.Context, e *opt.Evaluator, ids []schema.SourceID) float64 {
	best := 0.0
	for i := 0; i < 100; i++ { // want "never tests the context"
		if q := e.Eval(ids); q > best {
			best = q
		}
	}
	_ = ctx.Err()
	return best
}

// badRange fans out batches with no per-iteration test either.
func badRange(e *opt.Evaluator, batches [][][]schema.SourceID) {
	for _, b := range batches { // want "never tests the context"
		e.EvalBatch(b)
	}
}

// badDropped accepts a ctx it never consults.
func badDropped(ctx context.Context, xs []int) int { // want "ctx parameter ctx is never used"
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// badBackground mints an uncancelable context below the API boundary.
func badBackground(p *opt.Problem) *opt.Evaluator {
	return opt.NewEvaluator(context.Background(), p, opt.Options{}) // want "uncancelable context"
}
