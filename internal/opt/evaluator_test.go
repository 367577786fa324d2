package opt

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"mube/internal/constraint"
	"mube/internal/schema"
)

// TestKeyCollisionFree guards against the original memo-key bug: a fixed
// two-byte encoding truncated SourceIDs, so 0 and 65536 (and any pair equal
// mod 2^16) shared a key and silently returned each other's cached quality.
// The uvarint encoding must keep every id distinct at any magnitude.
func TestKeyCollisionFree(t *testing.T) {
	sets := [][]schema.SourceID{
		{0}, {1}, {127}, {128}, {255}, {256}, {16383}, {16384},
		{65535}, {65536}, // the pair the two-byte encoding collided
		{65537}, {1 << 20}, {1<<31 - 1},
		{0, 65536}, {65536, 65536 + 65536},
		{1, 2}, {1, 2, 3}, {258},
		{},
	}
	seen := make(map[string][]schema.SourceID, len(sets))
	for _, ids := range sets {
		k := key(ids)
		if prev, ok := seen[k]; ok {
			t.Errorf("key collision: %v and %v both encode to %q", prev, ids, k)
		}
		seen[k] = ids
	}
}

// TestEvalBatchMatchesSequential checks EvalBatch's core contract: for any
// worker count it is observationally identical to calling Eval on each
// candidate in order — same values, same memo, same budget accounting, and
// the MaxEvals cutoff landing on the same candidate index.
func TestEvalBatchMatchesSequential(t *testing.T) {
	p := problem(t, 4, constraint.Set{})
	r := rand.New(rand.NewSource(9))
	var cands [][]schema.SourceID
	for i := 0; i < 40; i++ {
		n := 1 + r.Intn(4)
		perm := r.Perm(12)
		set := make([]schema.SourceID, n)
		for j := 0; j < n; j++ {
			set[j] = schema.SourceID(perm[j])
		}
		cands = append(cands, SortIDs(set))
	}
	// Salt in exact duplicates so in-batch dedup is exercised.
	cands = append(cands, cands[0], cands[3], cands[0])

	for _, limit := range []int{0, 7, 25} {
		for _, workers := range []int{1, 2, 4, 8} {
			seq := NewEvaluator(p, limit)
			want := make([]float64, len(cands))
			for i, ids := range cands {
				want[i] = seq.Eval(ids)
			}

			par := NewEvaluator(p, limit)
			par.SetWorkers(workers)
			got := par.EvalBatch(cands)
			for i := range cands {
				//mube:vet-ignore floatcmp — the contract is bit-identical, not approximate
				if got[i] != want[i] {
					t.Errorf("limit=%d workers=%d: cand %d (%v): batch %v != sequential %v",
						limit, workers, i, cands[i], got[i], want[i])
				}
			}
			if par.Evals() != seq.Evals() || par.Calls() != seq.Calls() {
				t.Errorf("limit=%d workers=%d: evals/calls %d/%d != sequential %d/%d",
					limit, workers, par.Evals(), par.Calls(), seq.Evals(), seq.Calls())
			}
			if par.Exhausted() != seq.Exhausted() {
				t.Errorf("limit=%d workers=%d: Exhausted %v != sequential %v",
					limit, workers, par.Exhausted(), seq.Exhausted())
			}
		}
	}
}

// TestEvalBatchBudgetCutoffIndex pins the budget semantics precisely: with
// MaxEvals = 2 and three distinct candidates in one batch, the third must
// come back as the Unscored sentinel and stay uncached — exactly where
// sequential Eval cuts off. A refused candidate must be distinguishable from
// a real Q(S) = 0 (the regression this pins: it used to score a plain 0).
func TestEvalBatchBudgetCutoffIndex(t *testing.T) {
	p := problem(t, 4, constraint.Set{})
	e := NewEvaluator(p, 2)
	e.SetWorkers(4)
	got := e.EvalBatch([][]schema.SourceID{ids(0), ids(1), ids(2)})
	if Unscored(got[0]) || Unscored(got[1]) || got[0] == 0 || got[1] == 0 {
		t.Errorf("in-budget candidates not scored: %v", got)
	}
	if !Unscored(got[2]) {
		t.Errorf("post-budget candidate scored %v, want Unscored sentinel", got[2])
	}
	if !e.Exhausted() || e.Evals() != 2 {
		t.Errorf("Exhausted=%v Evals=%d after budget-2 batch", e.Exhausted(), e.Evals())
	}
	// The refused subset must not be memoized: cached subsets keep their real
	// values, unknown ones keep returning the sentinel.
	if v := e.Eval(ids(0)); Unscored(v) || v == 0 {
		t.Error("cached in-budget value lost after exhaustion")
	}
	if v := e.Eval(ids(2)); !Unscored(v) {
		t.Errorf("refused subset returned %v after exhaustion, want Unscored sentinel", v)
	}
}

// TestEvalBatchConcurrentStress hammers one shared evaluator from many
// goroutines with overlapping candidate sets. Run under -race this is the
// concurrency-safety regression for the memo, budget counters, scratch pool,
// and the universe's lazy aggregates. Every returned value must equal the
// reference value for its subset regardless of interleaving.
func TestEvalBatchConcurrentStress(t *testing.T) {
	p := problem(t, 4, constraint.Set{})
	ref := NewEvaluator(p, 0)
	pool := make([][]schema.SourceID, 0, 60)
	want := make(map[string]float64, 60)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 60; i++ {
		n := 1 + r.Intn(4)
		perm := r.Perm(12)
		set := make([]schema.SourceID, n)
		for j := 0; j < n; j++ {
			set[j] = schema.SourceID(perm[j])
		}
		s := SortIDs(set)
		pool = append(pool, s)
		want[key(s)] = ref.Eval(s)
	}

	e := NewEvaluator(p, 0)
	e.SetWorkers(4)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + g)))
			for round := 0; round < 20; round++ {
				cands := make([][]schema.SourceID, 10)
				for i := range cands {
					cands[i] = pool[r.Intn(len(pool))]
				}
				for i, v := range e.EvalBatch(cands) {
					//mube:vet-ignore floatcmp — memoized pure values must match exactly
					if v != want[key(cands[i])] {
						select {
						case errs <- "wrong value for " + key(cands[i]):
						default:
						}
					}
				}
				// Interleave scalar Evals and counter reads with batches.
				e.Eval(pool[r.Intn(len(pool))])
				e.Evals()
				e.Exhausted()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	// Concurrent callers may both debit an in-flight subset before either
	// memoizes it (duplicate suppression is per-batch, not global), so the
	// distinct-subset count is a floor, not an exact value, here. The exact
	// accounting contract is per solver goroutine and pinned by
	// TestEvalBatchMatchesSequential.
	if e.Evals() < len(want) {
		t.Errorf("evals = %d, below %d distinct subsets", e.Evals(), len(want))
	}
}

// TestEvalMovesMatchesEvalMove checks the Search-level batch helper returns
// exactly what per-move scoring would, on a walk through subsets of changing
// size. Moves and EvalMoves hand back the Search's own buffers, overwritten
// by every step, so no batch may return a value an earlier one left behind.
// Each batch also carries two moves that are no single flip (adding a member,
// dropping a non-member), so valid and invalid flips share batch slots.
func TestEvalMovesMatchesEvalMove(t *testing.T) {
	p := problem(t, 5, constraint.Set{})
	sA, err := NewSearch(context.Background(), p, Options{Seed: 6, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	sB, err := NewSearch(context.Background(), p, Options{Seed: 6, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	sub := sA.NewSubset(sA.RandomSubset())
	sizes := map[int]bool{}
	for step := 0; step < 60; step++ {
		sizes[sub.Len()] = true
		in := sub.IDs()
		var out []schema.SourceID
		for id := schema.SourceID(0); int(id) < p.Universe.Len(); id++ {
			if !slices.Contains(in, id) {
				out = append(out, id)
			}
		}
		moves := append(sA.Moves(sub, 12),
			Move{Add: in[r.Intn(len(in))], Drop: -1},
			Move{Add: out[r.Intn(len(out))], Drop: out[r.Intn(len(out))]})
		r.Shuffle(len(moves), func(i, j int) { moves[i], moves[j] = moves[j], moves[i] })
		qs := sA.EvalMoves(sub, moves)
		subB := sB.NewSubset(in)
		for i, mv := range moves {
			next := subB.Clone()
			next.Apply(mv)
			//mube:vet-ignore floatcmp — the contract is bit-identical, not approximate
			if one := sB.Eval.Eval(next.IDs()); one != qs[i] {
				t.Fatalf("step %d move %d (%+v): batch %v != single %v", step, i, mv, qs[i], one)
			}
		}
		sub.Apply(moves[r.Intn(len(moves))])
	}
	if len(sizes) < 3 {
		t.Errorf("walk visited subset sizes %v; want at least 3", sizes)
	}
}

// TestRemaining pins the budget-remaining arithmetic: -1 for unlimited,
// counting down to 0 and never below.
func TestRemaining(t *testing.T) {
	p := problem(t, 4, constraint.Set{})
	if e := NewEvaluator(p, 0); e.Remaining() != -1 {
		t.Errorf("unlimited Remaining() = %d, want -1", e.Remaining())
	}
	e := NewEvaluator(p, 2)
	if e.Remaining() != 2 {
		t.Errorf("fresh Remaining() = %d, want 2", e.Remaining())
	}
	e.Eval(ids(0))
	if e.Remaining() != 1 {
		t.Errorf("after 1 eval Remaining() = %d, want 1", e.Remaining())
	}
	e.Eval(ids(0)) // memo hit: no debit
	if e.Remaining() != 1 {
		t.Errorf("after memo hit Remaining() = %d, want 1", e.Remaining())
	}
	e.Eval(ids(1))
	e.Eval(ids(2)) // refused: budget already spent
	if e.Remaining() != 0 {
		t.Errorf("exhausted Remaining() = %d, want 0", e.Remaining())
	}
}

// TestEvalBatchCancellation pins the cancellation contract: a batch planned
// after the context dies computes nothing, returns the Unscored sentinel for
// every uncached candidate, reverts its planned budget debits (Evals stays
// truthful), and still serves memo hits. Status must report canceled.
func TestEvalBatchCancellation(t *testing.T) {
	p := problem(t, 4, constraint.Set{})
	e := NewEvaluator(p, 10)
	ctx, cancel := context.WithCancel(context.Background())
	e.BindContext(ctx)

	warm := e.EvalBatch([][]schema.SourceID{ids(0)})
	if Unscored(warm[0]) {
		t.Fatal("pre-cancel batch refused to score")
	}
	evalsBefore := e.Evals()

	cancel()
	got := e.EvalBatch([][]schema.SourceID{ids(0), ids(1), ids(2)})
	//mube:vet-ignore floatcmp — memoized pure values must match exactly
	if got[0] != warm[0] {
		t.Errorf("memo hit after cancel = %v, want cached %v", got[0], warm[0])
	}
	if !Unscored(got[1]) || !Unscored(got[2]) {
		t.Errorf("canceled batch scored uncached candidates: %v", got)
	}
	if e.Evals() != evalsBefore {
		t.Errorf("canceled batch left Evals at %d, want reverted to %d", e.Evals(), evalsBefore)
	}
	if e.Status() != StatusCanceled {
		t.Errorf("Status() = %s after cancel, want %s", e.Status(), StatusCanceled)
	}
	// The abandoned subsets must not be memoized as sentinels: a fresh
	// context scores them for real.
	e.BindContext(context.Background())
	if v := e.Eval(ids(1)); Unscored(v) {
		t.Error("abandoned subset stayed unscored after rebinding a live context")
	}
}

// TestStatusTaxonomy checks Status() derives the right verdict from context
// state and budget: deadline beats cancel beats exhaustion beats completed.
func TestStatusTaxonomy(t *testing.T) {
	p := problem(t, 4, constraint.Set{})

	e := NewEvaluator(p, 0)
	if e.Status() != StatusCompleted {
		t.Errorf("fresh Status() = %s", e.Status())
	}

	e = NewEvaluator(p, 1)
	e.Eval(ids(0))
	if e.Status() != StatusExhausted {
		t.Errorf("exhausted Status() = %s", e.Status())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.BindContext(ctx)
	if e.Status() != StatusCanceled {
		t.Errorf("canceled Status() = %s (a dead context must win over exhaustion)", e.Status())
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Time{}.AddDate(2000, 0, 0))
	defer dcancel()
	<-dctx.Done()
	e.BindContext(dctx)
	if e.Status() != StatusDeadline {
		t.Errorf("deadline Status() = %s", e.Status())
	}
}

// TestSetWorkers pins the worker-count semantics: 0 and negatives mean
// GOMAXPROCS, positives are taken literally.
func TestSetWorkers(t *testing.T) {
	p := problem(t, 3, constraint.Set{})
	e := NewEvaluator(p, 0)
	if e.Workers() < 1 {
		t.Errorf("default workers = %d", e.Workers())
	}
	e.SetWorkers(3)
	if e.Workers() != 3 {
		t.Errorf("SetWorkers(3) → %d", e.Workers())
	}
	e.SetWorkers(0)
	if e.Workers() < 1 {
		t.Errorf("SetWorkers(0) → %d, want GOMAXPROCS", e.Workers())
	}
}

// TestDroppedEvaluatorIsCollected checks that an evaluator, and with it the
// problem's universe and the memo, becomes garbage as soon as its solve drops
// it. The runtime keeps every sync.Pool used since the previous collection
// reachable through one more; a pool embedded in the evaluator kept the
// whole evaluator alive for that cycle, so a new universe built after one
// solve could find the old one still live at the next collection.
func TestDroppedEvaluatorIsCollected(t *testing.T) {
	p := problem(t, 5, constraint.Set{})
	ev := NewEvaluator(p, 0)
	ev.Eval(ids(0, 1, 2)) // checks a scratch out of the pool and back in
	collected := make(chan struct{})
	runtime.SetFinalizer(ev, func(*Evaluator) { close(collected) })
	ev = nil
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Fatal("a dropped evaluator outlived the next collection")
	}
}
