package exp

import (
	"context"

	"mube/internal/constraint"
	"mube/internal/telemetry"
)

// ConvergenceRow is one checkpoint of one solver's convergence curve: the
// best-so-far and current Q(S) after a given number of iterations, extracted
// from the solver.iter telemetry trace of a single seeded run.
type ConvergenceRow struct {
	Solver string
	Iter   int     // the solver's own iteration label at this checkpoint
	CurQ   float64 // current Q(S) at the checkpoint
	BestQ  float64 // best-so-far Q(S) at the checkpoint
	Evals  int     // distinct evaluations consumed by the checkpoint
}

// Convergence runs every heuristic solver once on the standard problem with a
// memory-sink recorder attached and samples its best-Q trajectory at
// power-of-two checkpoints (1st, 2nd, 4th, 8th, … trace point) plus the last.
// This is the per-iteration visibility the telemetry layer exists for: the
// same events a `mube solve -trace` run writes as JSONL, post-processed into
// a comparison table.
func Convergence(sc Scale) ([]ConvergenceRow, error) {
	res, err := sc.Universe(sc.BaseUniverse)
	if err != nil {
		return nil, err
	}
	p, err := sc.Problem(res, sc.ChooseDefault, constraint.Set{}, nil)
	if err != nil {
		return nil, err
	}
	var rows []ConvergenceRow
	for _, s := range allSolvers(sc) {
		sink := &telemetry.MemorySink{}
		opts := sc.Options(sc.Seed)
		opts.Recorder = telemetry.New(sink)
		if _, err := s.Solve(context.Background(), p, opts); err != nil {
			return nil, err
		}
		var iters []telemetry.Event
		evals := make(map[int64]int) // seq of solver.iter → evals consumed so far
		computed := 0
		for _, ev := range sink.Events() {
			switch ev.Name {
			case "eval.batch":
				if v, ok := ev.Attr("jobs"); ok {
					computed += int(v.(int64))
				}
			case "solver.iter":
				evals[ev.Seq] = computed
				iters = append(iters, ev)
			}
		}
		for _, idx := range checkpoints(len(iters)) {
			ev := iters[idx]
			row := ConvergenceRow{Solver: s.Name(), Evals: evals[ev.Seq]}
			if v, ok := ev.Attr("iter"); ok {
				row.Iter = int(v.(int64))
			}
			if v, ok := ev.Attr("cur_q"); ok {
				row.CurQ = v.(float64)
			}
			if v, ok := ev.Attr("best_q"); ok {
				row.BestQ = v.(float64)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// checkpoints returns the 0-based indices 0, 1, 3, 7, … (the 1st, 2nd, 4th,
// 8th, … elements) of an n-element trajectory, always including the last.
func checkpoints(n int) []int {
	if n == 0 {
		return nil
	}
	var idx []int
	for i := 1; i <= n; i *= 2 {
		idx = append(idx, i-1)
	}
	if last := n - 1; idx[len(idx)-1] != last {
		idx = append(idx, last)
	}
	return idx
}
