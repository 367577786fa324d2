package opt_test

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"mube/internal/constraint"
	"mube/internal/opt"
	"mube/internal/opt/opttest"
	"mube/internal/schema"
	"mube/internal/testutil"
)

// deltaBatch returns the flip batch the allocation tests score on the
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

// freshSearches returns n Searches over p that have scored nothing yet, each
// with one worker and no evaluation budget.
func freshSearches(t *testing.T, p *opt.Problem, n int) []*opt.Search {
	t.Helper()
	out := make([]*opt.Search, n)
	for i := range out {
		s, err := opt.NewSearch(context.Background(), p, opt.Options{MaxEvals: -1, Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

// TestEvalBatchDeltaAllocs pins the allocation budget of the flip path,
// Search.EvalMoves. Two regimes are pinned separately:
//
//   - memo-hit batches (the common revisit case in local search) cost at
//     most a per-batch constant with no per-flip term: a memo lookup
//     allocates nothing per candidate, and the candidates, applied
//     subsets and results live in the Search's buffers (measured 0);
//   - a fresh Search's first batch, every flip a fresh compute, pays
//     per-batch bookkeeping only: the batch buffers and job slab, the memo
//     table's first slots and entries, the delta state with its flip union
//     and shard base. Jobs live by value in the slab, the memo stores each
//     in its table with no key, and each worker's pooled scratch holds the
//     qef context, so nothing is allocated per flip. Each Search and Subset
//     is built outside the measured closure, on a memo no solve released.
func TestEvalBatchDeltaAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	p := opttest.Problem(t, 6, constraint.Set{})
	s := freshSearches(t, p, 1)[0]
	base, flips := deltaBatch()
	cur := s.NewSubset(base)

	// Warm up: builds the delta state, shard base, scratch pools, and
	// memoizes every candidate.
	s.EvalMoves(cur, flips)
	s.EvalMoves(cur, flips)

	hit := testing.AllocsPerRun(50, func() { s.EvalMoves(cur, flips) })
	if hit > 3 {
		t.Errorf("memo-hit batch: %v allocs/op for %d flips, want ≤ 3", hit, len(flips))
	}

	// Fresh computes: one fresh Search per run (AllocsPerRun runs once more
	// to warm up), rotating through distinct bases (the 12-source universe
	// has hundreds of 4-subsets), each scoring the 8 swaps of its first
	// member.
	bases := make([][]schema.SourceID, 0, 64)
	for a := schema.SourceID(0); a < 8; a++ {
		for b := a + 1; b < 12 && len(bases) < 64; b++ {
			bases = append(bases, opt.SortIDs([]schema.SourceID{a, b, (b + 1) % 12, (b + 3) % 12}))
		}
	}
	const runs = 50
	searches := freshSearches(t, p, runs+1)
	subsets := make([]*opt.Subset, len(searches))
	moves := make([][]opt.Move, len(searches))
	for i, s := range searches {
		base := bases[i%len(bases)]
		subsets[i] = s.NewSubset(base)
		for x := schema.SourceID(0); x < 12; x++ {
			if !slices.Contains(base, x) {
				moves[i] = append(moves[i], opt.Move{Add: x, Drop: base[0]})
			}
		}
	}
	i := 0
	fresh := testing.AllocsPerRun(runs, func() {
		searches[i].EvalMoves(subsets[i], moves[i])
		i++
	})
	// Measured 46 (8 flips per base). The budget leaves less than three
	// allocations per flip of headroom, so a per-flip job, context and
	// applied-subset slice coming back together fail it, as does any return
	// to per-flip recluster/re-merge churn (which costs thousands).
	if fresh > 62 {
		t.Errorf("fresh batch: %v allocs/op, want ≤ 62", fresh)
	}
}

// TestFirstDeltaBatchAllocBytes pins the bytes a fresh Search's first
// EvalMoves allocates: the delta state with its flip union, the shard base,
// the batch's buffers and the memo table's first slots and entries. It reads
// runtime.MemStats around 200 first batches, each on its own Search with one
// worker, built beforehand on a memo no solve released. A flip union at 64
// maps is 1 KiB; a counting union with a uint32 lane per bucket bit adds 16
// KiB more, and with one the batch allocated 22.7 KB. Measured 7.7 KB.
func TestFirstDeltaBatchAllocBytes(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	p := opttest.Problem(t, 6, constraint.Set{})
	base, flips := deltaBatch()
	searches := freshSearches(t, p, 200)
	subsets := make([]*opt.Subset, len(searches))
	for i, s := range searches {
		subsets[i] = s.NewSubset(base)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, s := range searches {
		s.EvalMoves(subsets[i], flips)
	}
	runtime.ReadMemStats(&after)
	perBatch := (after.TotalAlloc - before.TotalAlloc) / uint64(len(searches))
	if perBatch > 8<<10 {
		t.Errorf("first flip batch of a fresh Search: %d bytes, want ≤ 8 KiB", perBatch)
	}
}

// TestEvalBatchAllocs pins the allocation budget of the full path: fresh
// EvalBatch candidates, each merged from its signatures and matched as a
// whole set, through one warm evaluator. A batch costs a constant (the
// candidate and result slices and the job slab) whatever its size: the memo
// stores each job in its table with no key, and the union signatures and the
// context come from the worker's pooled scratch, so a memo key per job or a
// signature cloned per candidate (two allocations each) fails it.
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
	// Measured 3 per batch, at both sizes; one more absorbs the memo table's
	// growth.
	const perBatch = 4
	for _, k := range []int{1, 8} {
		ev := opt.NewEvaluator(context.Background(), p, opt.Options{MaxEvals: -1, Parallel: 1})
		next := 0
		batch := func() {
			ev.EvalBatch(subsets[next : next+k])
			next += k
		}
		batch() // warm the scratch pool and the match scratch
		if got := testing.AllocsPerRun(50, batch); got > perBatch {
			t.Errorf("batch of %d fresh subsets: %v allocs, want ≤ %d", k, got, perBatch)
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
