package opt_test

import (
	"context"
	"testing"

	"mube/internal/constraint"
	"mube/internal/opt"
	"mube/internal/opt/opttest"
	"mube/internal/telemetry"
)

// TestLiteralSearchTraces pins that a Search has one way to its recorder,
// its evaluator's: a Search built as a literal over an instrumented
// evaluator, as the flip differential builds one, emits solver.iter from
// TraceIter and opens and closes solver.run through BeginSolve.
func TestLiteralSearchTraces(t *testing.T) {
	p := opttest.Problem(t, 4, constraint.Set{})
	sink := &telemetry.MemorySink{}
	rec := telemetry.New(sink)
	s := &opt.Search{Eval: opt.NewEvaluator(context.Background(), p, opt.Options{MaxEvals: -1, Recorder: rec})}
	span := s.BeginSolve("literal")
	s.TraceIter("literal", 0, 0.5, 0.75)
	span.End()
	s.Release()

	seen := map[string]bool{}
	for _, ev := range sink.Events() {
		seen[ev.Name] = true
	}
	for _, name := range []string{"solver.run.begin", "solver.iter", "solver.run.end"} {
		if !seen[name] {
			t.Errorf("a literal Search over an instrumented evaluator emitted no %s (events: %v)", name, seen)
		}
	}
	if got := rec.Snapshot().Counter("solver.iters"); got != 1 {
		t.Errorf("solver.iters = %d, want 1", got)
	}
}
