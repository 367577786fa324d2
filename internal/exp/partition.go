package exp

import (
	"fmt"
	"io"
	"math"
)

// The partition experiment measures the group-level worker pool of the
// partitioned solver over the shard index's source groups. It is also a
// self-check — the runs at different GroupWorkers must agree bit for bit, or
// the experiment fails instead of reporting a speedup.

// PartitionRow is one solve of the ladder preset at a group-worker setting.
type PartitionRow struct {
	Workers int // 0 = GOMAXPROCS
	SolveMS float64
	Quality float64
	Evals   int
}

// PartitionResult is the experiment outcome: per-worker-setting timings plus
// the shard-index build they share.
type PartitionResult struct {
	Rows    []PartitionRow
	Groups  int
	ShardMS float64
}

// Speedup is the sequential wall-clock over the widest-pool wall-clock (1
// when degenerate). On a single-CPU runner it hovers near 1 by construction.
func (r *PartitionResult) Speedup() float64 {
	if len(r.Rows) < 2 || r.Rows[len(r.Rows)-1].SolveMS <= 0 {
		return 1
	}
	return r.Rows[0].SolveMS / r.Rows[len(r.Rows)-1].SolveMS
}

// Partition runs the 10k ladder preset once per group-worker setting over a
// single generated universe and shard index, verifying bit-identical
// results across settings.
func Partition(sc Scale) (*PartitionResult, error) {
	p, err := ScalePresetByName("10k")
	if err != nil {
		return nil, err
	}
	if sc.Name != "full" {
		p = p.Reduced()
	}
	l, err := newLadder(p)
	if err != nil {
		return nil, err
	}
	res := &PartitionResult{Groups: l.groups, ShardMS: l.shardMS}
	for _, workers := range []int{1, 4} {
		sol, solveMS, err := l.solve(sc.Parallel, workers, sc.Rec)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, PartitionRow{
			Workers: workers,
			SolveMS: solveMS,
			Quality: sol.Quality,
			Evals:   sol.Evals,
		})
	}
	first := res.Rows[0]
	for _, r := range res.Rows[1:] {
		if math.Float64bits(r.Quality) != math.Float64bits(first.Quality) || r.Evals != first.Evals {
			return nil, fmt.Errorf("exp: partitioned solve not worker-invariant: %d workers (q=%v evals=%d) vs %d (q=%v evals=%d)",
				first.Workers, first.Quality, first.Evals, r.Workers, r.Quality, r.Evals)
		}
	}
	return res, nil
}

// RenderPartition prints the worker ladder, then one summary line with the
// shard-index build and the speedup of the widest group pool over one
// worker.
func RenderPartition(w io.Writer, res *PartitionResult) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "group_workers\tsolve_ms\tquality\tevals")
	for _, r := range res.Rows {
		fmt.Fprintf(tw, "%d\t%.0f\t%.4f\t%d\n", r.Workers, r.SolveMS, r.Quality, r.Evals)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "shard index: %d groups in %.1fms; speedup %.2fx at %d group workers\n",
		res.Groups, res.ShardMS, res.Speedup(), res.Rows[len(res.Rows)-1].Workers)
	return nil
}
