package opt_test

import (
	"context"
	"runtime"
	"testing"

	"mube/internal/constraint"
	"mube/internal/opt"
	"mube/internal/opt/opttest"
	"mube/internal/schema"
	"mube/internal/testutil"
)

// deltaBatch returns the delta batch the allocation tests score on the
// opttest problem: a 4-source base, its 8 adds and 3 of its drops.
func deltaBatch() ([]schema.SourceID, []opt.Move) {
	base := []schema.SourceID{0, 1, 2, 3}
	var flips []opt.Move
	for s := schema.SourceID(4); s < 12; s++ {
		flips = append(flips, opt.Move{Add: s, Drop: -1})
	}
	for _, s := range base[1:] {
		flips = append(flips, opt.Move{Add: -1, Drop: s})
	}
	return base, flips
}

// TestEvalBatchDeltaAllocs pins the steady-state allocation budget of the
// evaluator's hot loop. Two regimes are pinned separately:
//
//   - memo-hit batches (the common revisit case in local search) cost a
//     per-batch constant with no per-flip term: the candidate slice, the one
//     buffer holding every applied subset, and the output slice — the keyBuf
//     lookup path allocates nothing per candidate;
//   - fresh-compute batches additionally pay one memo key (and its insert)
//     per job, plus per-batch bookkeeping: the job slab, the delta state and
//     shard base, the evaluator itself. Jobs live by value in the slab, and
//     each worker's pooled Scratch holds the qef context, so no job or
//     context is allocated per flip.
func TestEvalBatchDeltaAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	p := opttest.Problem(t, 6, constraint.Set{})
	ev := opt.NewEvaluator(p, 0)
	ev.SetWorkers(1)
	base, flips := deltaBatch()

	// Warm up: builds the delta state, shard base, scratch pools, and
	// memoizes every candidate.
	ev.EvalBatchDelta(base, flips)
	ev.EvalBatchDelta(base, flips)

	hit := testing.AllocsPerRun(50, func() { ev.EvalBatchDelta(base, flips) })
	if hit > 3 {
		t.Errorf("memo-hit batch: %v allocs/op for %d flips, want ≤ 3", hit, len(flips))
	}

	// Fresh computes: rotate through distinct bases so every batch's flips
	// miss the memo (the 12-source universe has hundreds of 4-subsets).
	bases := make([][]schema.SourceID, 0, 64)
	for a := schema.SourceID(0); a < 8; a++ {
		for b := a + 1; b < 12 && len(bases) < 64; b++ {
			bases = append(bases, []schema.SourceID{a, b, (b + 1) % 12, (b + 3) % 12})
		}
	}
	neighborhood := func(base []schema.SourceID) []opt.Move {
		in := map[schema.SourceID]bool{}
		for _, s := range base {
			in[s] = true
		}
		var mvs []opt.Move
		for s := schema.SourceID(0); s < 12; s++ {
			if !in[s] {
				mvs = append(mvs, opt.Move{Add: s, Drop: base[0]})
			}
		}
		return mvs
	}
	i := 0
	fresh := testing.AllocsPerRun(50, func() {
		b := opt.SortIDs(append([]schema.SourceID(nil), bases[i%len(bases)]...))
		i++
		ev2 := opt.NewEvaluator(p, 0)
		ev2.SetWorkers(1)
		ev2.EvalBatchDelta(b, neighborhood(b))
	})
	// Measured 66 (8 flips per rotated base). The budget leaves less than
	// one allocation per flip of headroom, so a per-flip job, context or
	// applied-subset slice coming back fails it, as does any return to
	// per-flip recluster/re-merge churn (which costs thousands).
	if fresh > 70 {
		t.Errorf("fresh batch: %v allocs/op, want ≤ 70", fresh)
	}
}

// TestFirstDeltaBatchAllocBytes pins the bytes a fresh evaluator's first
// EvalBatchDelta allocates: the delta state with its flip union, the shard
// base, the batch's buffers and memo keys. It reads runtime.MemStats around
// 200 first batches, each on its own evaluator with one worker. A flip union
// at 64 maps is 1 KiB; a counting union with a uint32 lane per bucket bit
// adds 16 KiB more, and with one the batch allocated 22.7 KB. Measured
// 6.1–6.3 KB.
func TestFirstDeltaBatchAllocBytes(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	p := opttest.Problem(t, 6, constraint.Set{})
	base, flips := deltaBatch()
	evs := make([]*opt.Evaluator, 200)
	for i := range evs {
		evs[i] = opt.NewEvaluator(p, 0)
		evs[i].SetWorkers(1)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, ev := range evs {
		ev.EvalBatchDelta(base, flips)
	}
	runtime.ReadMemStats(&after)
	perBatch := (after.TotalAlloc - before.TotalAlloc) / uint64(len(evs))
	if perBatch > 8<<10 {
		t.Errorf("first delta batch of a fresh evaluator: %d bytes, want ≤ 8 KiB", perBatch)
	}
}

// TestEvalBatchAllocs pins the allocation budget of the full path: fresh
// EvalBatch candidates, each merged from its signatures and matched as a
// whole set, through one warm evaluator. A batch costs a constant (the
// candidate and result slices and the job slab) plus one memo key per job;
// the union signatures and the context come from the worker's pooled
// scratch, so a signature cloned per candidate (two allocations each) fails
// it.
func TestEvalBatchAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	p := opttest.Problem(t, 6, constraint.Set{})
	// Every subset of 2 to 6 of the 12 sources, so no batch hits the memo.
	var subsets [][]schema.SourceID
	for mask := 1; mask < 1<<12; mask++ {
		var ids []schema.SourceID
		for b := 0; b < 12; b++ {
			if mask&(1<<b) != 0 {
				ids = append(ids, schema.SourceID(b))
			}
		}
		if len(ids) >= 2 && len(ids) <= p.MaxSources {
			subsets = append(subsets, ids)
		}
	}
	// Measured 3 per batch; one more absorbs the memo map's growth.
	const perBatch = 4
	for _, k := range []int{1, 8} {
		ev := opt.NewEvaluator(p, 0)
		ev.SetWorkers(1)
		next := 0
		batch := func() {
			ev.EvalBatch(subsets[next : next+k])
			next += k
		}
		batch() // warm the scratch pool and the match scratch
		if got := testing.AllocsPerRun(50, batch); got > float64(perBatch+k) {
			t.Errorf("batch of %d fresh subsets: %v allocs, want ≤ %d", k, got, perBatch+k)
		}
	}
}

// TestSearchNeighborhoodAllocs pins what one local-search iteration costs
// once its Search has sized its buffers. Moves and EvalMoves reuse the
// Search's neighborhood, candidates, applied subsets, job slab and results,
// so an iteration whose neighborhood is all memo hits allocates nothing; a
// neighborhood or batch buffer allocated per iteration fails it.
func TestSearchNeighborhoodAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	p := opttest.Problem(t, 6, constraint.Set{})
	s, err := opt.NewSearch(context.Background(), p, opt.Options{Seed: 5, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	cur := s.NewSubset([]schema.SourceID{0, 1, 2, 3})
	iter := func() { s.EvalMoves(cur, s.Moves(cur, 20)) }
	// cur has 44 neighbors; 200 sampled iterations memoize every one.
	for i := 0; i < 200; i++ {
		iter()
	}
	if got := testing.AllocsPerRun(50, iter); got != 0 {
		t.Errorf("memo-hit iteration: %v allocs, want 0", got)
	}
}
