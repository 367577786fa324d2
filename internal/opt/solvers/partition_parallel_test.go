package solvers

import (
	"bytes"
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"mube/internal/constraint"
	"mube/internal/opt"
	"mube/internal/opt/tabu"
	"mube/internal/schema"
	"mube/internal/telemetry"
)

// TestPartitionedGroupWorkersBitIdentical is the acceptance contract of the
// parallel partitioned solver: at GroupWorkers 1 and 4, across seeds, the
// solve returns bit-identical Quality/Evals/Status/IDs and a byte-identical
// JSONL trace — group sub-solves are independent, and their private trace
// streams replay into the parent in group order regardless of scheduling.
func TestPartitionedGroupWorkersBitIdentical(t *testing.T) {
	cons := constraint.Set{Sources: []schema.SourceID{2, 7}}
	p := domainProblem(t, 60, 5, 10, cons)
	if g := p.Matcher.NewSharded(p.Constraints).SourceGroups(); len(g) < 2 {
		t.Fatalf("fixture has %d groups; the differential needs several", len(g))
	}
	ps := Partitioned{Inner: tabu.Solver{}}
	for _, seed := range []int64{3, 9, 21} {
		base := opt.Options{Seed: seed, MaxEvals: 600, MaxIters: 12, Patience: 4}

		seq := base
		seq.GroupWorkers = 1
		solSeq, traceSeq := solveTraced(t, ps, p, seq)

		par := base
		par.GroupWorkers = 4
		solPar, tracePar := solveTraced(t, ps, p, par)

		//mube:vet-ignore floatcmp — the contract is bit-identity, not approximation
		if math.Float64bits(solSeq.Quality) != math.Float64bits(solPar.Quality) {
			t.Errorf("seed %d: quality %v (1 worker) vs %v (4 workers)", seed, solSeq.Quality, solPar.Quality)
		}
		if solSeq.Evals != solPar.Evals || solSeq.Status != solPar.Status {
			t.Errorf("seed %d: evals/status (%d,%s) vs (%d,%s)",
				seed, solSeq.Evals, solSeq.Status, solPar.Evals, solPar.Status)
		}
		if len(solSeq.IDs) != len(solPar.IDs) {
			t.Fatalf("seed %d: id sets differ: %v vs %v", seed, solSeq.IDs, solPar.IDs)
		}
		for i := range solSeq.IDs {
			if solSeq.IDs[i] != solPar.IDs[i] {
				t.Fatalf("seed %d: id sets differ: %v vs %v", seed, solSeq.IDs, solPar.IDs)
			}
		}
		if !bytes.Equal(traceSeq, tracePar) {
			t.Errorf("seed %d: traces differ between 1 and 4 group workers (%d vs %d bytes)",
				seed, len(traceSeq), len(tracePar))
		}
	}
}

// TestPartitionedPooledStorageUnshared runs two partitioned solves at once,
// each running its group sub-solves four at a time on two-worker
// evaluators, and requires every solve to return bit for bit what a
// sequential solve returns. Each sub-solve and each refinement takes its
// memo storage from the package's pool and releases it as it ends, so under
// -race storage handed to one live solve while another still uses it shows
// as a race, and a value carried from one solve into another as a mismatch.
func TestPartitionedPooledStorageUnshared(t *testing.T) {
	p := domainProblem(t, 60, 5, 10, constraint.Set{})
	ps := Partitioned{Inner: tabu.Solver{}}
	seeds := []int64{3, 9, 21}
	opts := func(seed int64, groupWorkers, parallel int) opt.Options {
		return opt.Options{Seed: seed, MaxEvals: 600, MaxIters: 12, Patience: 4, GroupWorkers: groupWorkers, Parallel: parallel}
	}
	want := make([]*opt.Solution, len(seeds))
	for i, seed := range seeds {
		sol, err := ps.Solve(context.Background(), p, opts(seed, 1, 1))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sol
	}
	const solves = 2
	got := make([][]*opt.Solution, solves)
	var wg sync.WaitGroup
	for g := 0; g < solves; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, seed := range seeds {
				sol, err := ps.Solve(context.Background(), p, opts(seed, 4, 2))
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], sol)
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for i, sol := range got[g] {
			w := want[i]
			if math.Float64bits(sol.Quality) != math.Float64bits(w.Quality) || sol.Evals != w.Evals ||
				sol.Status != w.Status || !slices.Equal(sol.IDs, w.IDs) {
				t.Errorf("solve %d, seed %d: (%v, %d, %s, %v), sequential (%v, %d, %s, %v)", g, seeds[i],
					sol.Quality, sol.Evals, sol.Status, sol.IDs, w.Quality, w.Evals, w.Status, w.IDs)
			}
		}
	}
}

// TestPartitionedGroupWorkersMetricsIdentical pins the metric half of the
// replay model: counters merged from the per-group child recorders add up to
// the same totals at any group-worker count.
func TestPartitionedGroupWorkersMetricsIdentical(t *testing.T) {
	p := domainProblem(t, 60, 5, 10, constraint.Set{})
	ps := Partitioned{Inner: tabu.Solver{}}
	base := opt.Options{Seed: 9, MaxEvals: 600, MaxIters: 12, Patience: 4}

	snaps := make([]map[string]int64, 0, 2)
	for _, gw := range []int{1, 4} {
		opts := base
		opts.GroupWorkers = gw
		opts.Recorder = telemetry.New(nil)
		if _, err := ps.Solve(context.Background(), p, opts); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, opts.Recorder.Snapshot().Counters)
	}
	if len(snaps[0]) == 0 {
		t.Fatal("no counters recorded")
	}
	for k, v := range snaps[0] {
		if snaps[1][k] != v {
			t.Errorf("counter %s = %d at 1 worker, %d at 4", k, v, snaps[1][k])
		}
	}
	for k := range snaps[1] {
		if _, ok := snaps[0][k]; !ok {
			t.Errorf("counter %s only present at 4 workers", k)
		}
	}
}

// solveMergedQ runs one partitioned solve with a MemorySink recorder and
// returns the solution plus the merged union's Q — the floor refinement
// starts from — read from the partition.refine.begin event's merged_q
// attribute.
func solveMergedQ(t *testing.T, ps Partitioned, p *opt.Problem, opts opt.Options) (*opt.Solution, float64) {
	t.Helper()
	sink := &telemetry.MemorySink{}
	opts.Recorder = telemetry.New(sink)
	sol, err := ps.Solve(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range sink.Events() {
		if ev.Name != "partition.refine.begin" {
			continue
		}
		if q, ok := ev.Attr("merged_q"); ok {
			return sol, q.(float64)
		}
	}
	t.Fatal("solve emitted no partition.refine.begin event with merged_q")
	return nil, 0
}

// TestPartitionedRefineMonotone asserts the refinement acceptance rule on
// every seed: the refined solution never scores below the merged union it
// started from, and stays feasible.
func TestPartitionedRefineMonotone(t *testing.T) {
	cons := constraint.Set{Sources: []schema.SourceID{2, 7}}
	p := domainProblem(t, 60, 5, 10, cons)
	ps := Partitioned{Inner: tabu.Solver{}}
	for _, seed := range []int64{3, 9, 21} {
		opts := opt.Options{Seed: seed, MaxEvals: 600, MaxIters: 12, Patience: 4}
		refined, mergedQ := solveMergedQ(t, ps, p, opts)
		if refined.Quality < mergedQ {
			t.Errorf("seed %d: refinement lowered Q: %v -> %v", seed, mergedQ, refined.Quality)
		}
		if !p.Feasible(refined.IDs) {
			t.Errorf("seed %d: refined solution %v infeasible", seed, refined.IDs)
		}
		for _, req := range cons.Sources {
			found := false
			for _, id := range refined.IDs {
				if id == req {
					found = true
				}
			}
			if !found {
				t.Errorf("seed %d: refinement dropped required source %d: %v", seed, req, refined.IDs)
			}
		}
	}
}

// TestPartitionedRefineImproves10k pins a seeded 10k-source scenario where
// the cross-group pass strictly improves on the merged union — the
// decomposition's coupling loss is real and refinement recovers some of it.
func TestPartitionedRefineImproves10k(t *testing.T) {
	p := domainProblem(t, 10_000, 8, 40, constraint.Set{})
	ps := Partitioned{Inner: tabu.Solver{}}
	refined, mergedQ := solveMergedQ(t, ps, p, opt.Options{Seed: 1, MaxEvals: 2000, MaxIters: 6, Patience: 2})
	if refined.Quality < mergedQ {
		t.Fatalf("refinement lowered Q: %v -> %v", mergedQ, refined.Quality)
	}
	if refined.Quality <= mergedQ {
		t.Fatalf("pinned scenario no longer improves: merged %v, refined %v "+
			"(pick a new seed if solver behavior intentionally changed)", mergedQ, refined.Quality)
	}
}
