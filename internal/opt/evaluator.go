package opt

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"mube/internal/match"
	"mube/internal/qef"
	"mube/internal/schema"
	"mube/internal/telemetry"
)

// Evaluator computes Q(S) for candidate source sets, memoizing results so
// that revisits of a subset (common in local search) are free and so that
// solver budgets can be expressed in *distinct* evaluations.
//
// The evaluator is safe for concurrent use: the memo and budget counters are
// mutex-guarded, and EvalBatch fans independent candidates out to a worker
// pool. Determinism contract (see DESIGN.md): a batch's memo lookups and
// budget debits are resolved sequentially in candidate order before any
// worker runs, and workers compute the pure function Q(S) only — so for a
// fixed seed a solve returns bit-identical results whatever the worker count,
// and MaxEvals cuts off at the same subset it would sequentially.
//
// That exact accounting holds per calling goroutine (solvers drive the
// evaluator from one goroutine). Independent concurrent callers racing on the
// same uncached subset may each debit an evaluation before either memoizes it
// — duplicate suppression is per batch, not global — so under concurrent use
// Evals is an upper bound on distinct subsets, never an undercount.
type Evaluator struct {
	p       *Problem
	workers int // worker-pool size for EvalBatch; 1 = in-line
	ctx     context.Context
	rec     *telemetry.Recorder // nil = telemetry off

	mu    sync.Mutex
	memo  *memo // from memoPool; nil once released
	evals int   // cache misses (distinct subsets evaluated)
	limit int   // MaxEvals; negative = unlimited

	// scratchPool recycles *scratch values across evaluations; each
	// in-flight evaluation checks one out for exclusive use. A pointer: the
	// runtime lists every used pool until two collections pass, and a pool
	// embedded by value would keep the whole evaluator reachable through
	// that list (its problem's universe and its memo with it) after the
	// solve drops it.
	scratchPool *sync.Pool

	// sharded is the matcher's cluster-shard view of the problem's
	// constraints, nil without a matcher: every Match(S) the evaluator runs,
	// whole-set or flip (see match.Sharded), goes through it. NewEvaluator
	// builds it, so workers only read it.
	sharded *match.Sharded
	// The inputs a candidate derives are those a positively weighted QEF
	// reads: wantMatch for F1(S), so without it no candidate runs Match(S);
	// wantUnion for the union statistics (Coverage or Redundancy); and
	// wantCoop for Redundancy's cooperative-only union.
	wantMatch, wantUnion, wantCoop bool
}

// NewEvaluator builds an evaluator for p, configured once from opts after
// WithDefaults: MaxEvals caps its distinct evaluations (negative =
// unlimited), Parallel sizes EvalBatch's worker pool (1 evaluates in-line on
// the caller's goroutine, 0 or negative uses GOMAXPROCS), and Recorder
// receives its metrics (nil = off). EvalBatch checks ctx between its planning
// pass and the worker fan-out, so a cancellation or deadline stops a search
// within one batch; a nil ctx means no cancellation. Neither the worker count
// nor the recorder ever changes a result: Q(S) values, memo contents and
// budget accounting are bit-identical at every setting. The memo's storage
// comes from a package pool: Search.Release and Score return it, and an
// evaluator nobody releases leaves it to the collector.
func NewEvaluator(ctx context.Context, p *Problem, opts Options) *Evaluator {
	if ctx == nil {
		ctx = context.Background() //mube:vet-ignore ctxflow — documented nil-means-no-cancellation API
	}
	opts = opts.WithDefaults()
	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Evaluator{
		p:       p,
		workers: workers,
		ctx:     ctx,
		rec:     opts.Recorder,
		memo:    memoPool.Get().(*memo),
		limit:   opts.MaxEvals,
	}
	e.scratchPool = &sync.Pool{New: func() any { return &scratch{} }}
	if p.Matcher != nil {
		e.sharded = p.Matcher.NewSharded(p.Constraints)
	}
	for _, f := range p.Quality.QEFs {
		if p.Quality.Weights[f.Name()] <= 0 {
			continue
		}
		switch f.(type) {
		case qef.MatchQuality:
			e.wantMatch = e.sharded != nil
		case qef.Coverage:
			e.wantUnion = true
		case qef.Redundancy:
			e.wantUnion, e.wantCoop = true, true
		}
	}
	return e
}

// f1 returns F1(ids) through the whole-set sharded path: the match quality,
// or 0 when Match(S) is not valid on the constraints.
func (e *Evaluator) f1(ids []schema.SourceID) float64 {
	q, ok, err := e.sharded.Score(ids)
	if err != nil || !ok {
		return 0
	}
	return q
}

// Unscored is the sentinel quality for candidates the evaluator refused to
// score — requested past the MaxEvals budget, or abandoned on cancellation.
// It is -Inf: it can never win a best-so-far comparison (so consuming a
// partially scored batch is harmless), and it is unmistakable for a genuine
// Q(S) = 0, which infeasible-but-scored subsets legitimately produce.
// Sentinels are never memoized.
func Unscored(q float64) bool { return math.IsInf(q, -1) }

// unscored is the sentinel value Unscored detects.
var unscored = math.Inf(-1)

// Recorder returns the recorder the evaluator was built with (nil =
// telemetry off).
func (e *Evaluator) Recorder() *telemetry.Recorder { return e.rec }

// release empties the memo and returns its storage to memoPool. The
// evaluator must not be used afterwards: its memo is gone, and a lookup
// panics.
func (e *Evaluator) release() {
	e.mu.Lock()
	m := e.memo
	e.memo = nil
	e.mu.Unlock()
	m.reset()
	memoPool.Put(m)
}

// Exhausted reports whether the evaluation budget is spent.
func (e *Evaluator) Exhausted() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.limit > 0 && e.evals >= e.limit
}

// Remaining returns how many evaluations are left in the MaxEvals budget, or
// -1 when the budget is unlimited. Solvers that draw fixed-size candidate
// chunks clamp them to this so no candidate is requested only to come back
// unscored.
func (e *Evaluator) Remaining() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.limit <= 0 {
		return -1
	}
	if r := e.limit - e.evals; r > 0 {
		return r
	}
	return 0
}

// Evals returns the number of distinct subsets evaluated so far.
func (e *Evaluator) Evals() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.evals
}

// compute evaluates Q(ids) from scratch, deriving the union statistics by
// the full merge: the pure, side-effect-free part of an evaluation, safe to
// run on any worker goroutine.
func (e *Evaluator) compute(ids []schema.SourceID, sc *scratch) float64 {
	if !e.p.Feasible(ids) {
		return 0
	}
	sc.ctx = qef.Context{U: e.p.Universe, IDs: ids}
	if e.wantUnion {
		st, merges := mergeUnion(e.p.Universe, ids, sc, e.wantCoop)
		sc.ctx.Union = st
		// Counter adds are commutative, so this is safe from worker goroutines.
		if merges > 0 {
			e.rec.Add("pcsa.merges", int64(merges))
		}
	}
	if e.wantMatch {
		sc.ctx.F1 = e.f1(ids)
	}
	v := e.p.Quality.Eval(&sc.ctx)
	sc.ctx = qef.Context{}
	return v
}

// Eval returns Q(S) for the given source set. ids must be sorted (use
// SortIDs); infeasible sets score 0. Once the budget is exhausted, unknown
// subsets return the Unscored sentinel (-Inf, never memoized) — solvers
// should check Exhausted and stop.
func (e *Evaluator) Eval(ids []schema.SourceID) float64 {
	e.rec.Add("eval.calls", 1)
	h := hashIDs(ids)
	e.mu.Lock()
	if v, ok := e.memo.lookup(h, ids); ok {
		e.mu.Unlock()
		e.rec.Add("eval.memo_hits", 1)
		return v
	}
	if e.limit > 0 && e.evals >= e.limit {
		e.mu.Unlock()
		e.rec.Add("eval.unscored", 1)
		return unscored
	}
	e.evals++
	e.mu.Unlock()

	sc := e.scratchPool.Get().(*scratch)
	v := e.compute(ids, sc)
	e.scratchPool.Put(sc)
	e.rec.Add("eval.computed", 1)

	e.mu.Lock()
	e.memo.put(h, ids, v)
	e.mu.Unlock()
	return v
}

// batchJob is one distinct subset a batch must compute; first is the index of
// the first candidate asking for it, and later duplicates within the batch
// are batchDups pointing at it. A job whose delta is set is a single flip
// against the batch's shared base (the local-search neighborhoods); the
// others run the full re-merge path.
type batchJob struct {
	hash  uint64
	ids   []schema.SourceID
	first int
	v     float64

	// flip + delta: score as base±flip against the batch's delta state.
	flip  Move
	delta bool
}

// batchDup is a candidate that receives the value of an earlier job of its
// batch (an index into the batch's job slab).
type batchDup struct{ cand, job int }

// batchBufs are the buffers of one batch: its candidates, the one buffer
// holding a flip batch's applied subsets, its job slab, its results and the
// image of its base. EvalBatch starts from empty ones. A Search keeps one
// set for every neighborhood it scores, so its batches allocate none of them
// once the first has sized them, and the image moves from base to base
// instead of being built again.
type batchBufs struct {
	cands []candidate
	ids   []schema.SourceID
	jobs  []batchJob
	out   []float64
	delta *deltaState // built by the first flip batch
}

// candidate pairs one batch entry with its memo hash and its
// incremental-scoring plan.
type candidate struct {
	ids  []schema.SourceID
	hash uint64
	flip Move
	// hasFlip marks a validated single flip against the batch's base.
	hasFlip bool
}

// EvalBatch evaluates a slice of independent candidate subsets and returns
// their qualities in candidate order. Each ids slice must be sorted (SortIDs)
// and must not be mutated until EvalBatch returns.
//
// EvalBatch is observationally identical to calling Eval on each candidate in
// order — memo hits, duplicate candidates, and the MaxEvals cutoff resolve
// against the same candidate index — but distinct uncached subsets are scored
// concurrently on up to Options.Parallel goroutines. Solvers therefore keep
// all randomness on their own goroutine, batch the neighborhood or population
// they would have scored sequentially, and consume the returned slice in
// order.
func (e *Evaluator) EvalBatch(cands [][]schema.SourceID) []float64 {
	wrapped := make([]candidate, len(cands))
	for i, ids := range cands {
		wrapped[i] = candidate{ids: ids, hash: hashIDs(ids)}
	}
	var b batchBufs
	return e.evalCandidates(wrapped, nil, &b)
}

// evalCandidates is the shared batch engine behind EvalBatch and
// Search.EvalMoves. base is non-nil only for flip batches and names the
// subset the candidates' flips are relative to.
//
// The determinism contract is the planning-vs-fan-out split: memo hits,
// duplicate suppression, and budget debits resolve sequentially in candidate
// order under the lock; the fan-out computes pure functions only. Whether a
// job is scored by the full re-merge or a flip against the delta state never
// changes its value (the flip path is bit-exact), so results are identical
// at any worker count and to EvalBatch over the same subsets.
//
// The results, the job slab and the delta state come from b, and the
// returned slice is b's: it stays valid until b serves the next batch.
func (e *Evaluator) evalCandidates(cands []candidate, base []schema.SourceID, b *batchBufs) []float64 {
	if cap(b.out) < len(cands) {
		b.out = make([]float64, len(cands))
	}
	out := b.out[:len(cands)]
	clear(out)

	// Planning pass: resolve memo hits and budget debits sequentially in
	// candidate order. Everything order-dependent happens here, under the
	// lock; only pure Q(S) computations remain afterwards. The distinct jobs
	// live by value in one slab per batch.
	var hits, refused int
	jobs := b.jobs[:0]
	var dups []batchDup
	e.mu.Lock()
	pend := e.memo.pending(len(cands))
	for i, c := range cands {
		if v, ok := e.memo.lookup(c.hash, c.ids); ok {
			out[i] = v
			hits++
			continue
		}
		j, slot := pendingJob(pend, jobs, c.hash, c.ids)
		if j >= 0 {
			dups = append(dups, batchDup{cand: i, job: j})
			continue
		}
		if e.limit > 0 && e.evals >= e.limit {
			out[i] = unscored // same as sequential Eval past the budget
			refused++
			continue
		}
		e.evals++
		if cap(jobs) == 0 {
			jobs = make([]batchJob, 0, len(cands)-i)
		}
		pend[slot] = int32(len(jobs) + 1)
		jobs = append(jobs, batchJob{hash: c.hash, ids: c.ids, first: i, flip: c.flip, delta: c.hasFlip})
	}
	if len(jobs) > 0 {
		clear(pend)
	}
	e.mu.Unlock()
	b.jobs = jobs

	// The planning-vs-fan-out split: of len(cands) candidates, hits+dups+
	// refused were resolved during planning and len(jobs) fan out to workers.
	e.rec.Add("eval.calls", int64(len(cands)))
	e.rec.Add("eval.batches", 1)
	e.rec.Add("eval.memo_hits", int64(hits))
	e.rec.Add("eval.batch_dups", int64(len(dups)))
	e.rec.Add("eval.unscored", int64(refused))

	// Cancellation check, between the planning pass and the worker fan-out:
	// a canceled or expired context abandons the batch before any Q(S) is
	// computed. The planned budget debits are reverted — no evaluation
	// happened, so Evals stays truthful — and the abandoned candidates come
	// back as Unscored sentinels, which no solver comparison can mistake for
	// a real quality.
	if err := e.ctx.Err(); err != nil && len(jobs) > 0 {
		e.mu.Lock()
		e.evals -= len(jobs)
		e.mu.Unlock()
		for _, j := range jobs {
			out[j.first] = unscored
		}
		for _, d := range dups {
			out[d.cand] = unscored
		}
		e.rec.Add("eval.budget_reverts", int64(len(jobs)))
		e.rec.Emit("eval.abort",
			telemetry.Int("cands", len(cands)),
			telemetry.Int("reverted", len(jobs)))
		return out
	}

	if len(jobs) > 0 {
		deltaHits := 0
		for _, j := range jobs {
			if j.delta {
				deltaHits++
			}
		}
		// Image the batch's base once per batch, before the fan-out: workers
		// then read the delta state concurrently without mutation.
		var ds *deltaState
		if deltaHits > 0 {
			if b.delta == nil {
				b.delta = &deltaState{}
			}
			ds = b.delta
			e.rebase(ds, base)
		}
		e.rec.Add("eval.delta_hits", int64(deltaHits))

		workers := e.workers
		if workers > len(jobs) {
			workers = len(jobs)
		}
		if workers <= 1 {
			sc := e.scratchPool.Get().(*scratch)
			for i := range jobs {
				jobs[i].v = e.computeJob(&jobs[i], ds, sc)
			}
			e.scratchPool.Put(sc)
		} else {
			// Workers pull jobs off a shared cursor. Which worker computes
			// which job is scheduler-dependent, but each job's value is a
			// pure function of its subset (and the immutable delta state),
			// so results are unaffected.
			// jobs and ds are passed rather than captured, so a batch that
			// never fans out keeps them off the heap.
			var cursor atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(jobs []batchJob, ds *deltaState) {
					defer wg.Done()
					sc := e.scratchPool.Get().(*scratch)
					defer e.scratchPool.Put(sc)
					for {
						i := int(cursor.Add(1)) - 1
						if i >= len(jobs) {
							return
						}
						jobs[i].v = e.computeJob(&jobs[i], ds, sc)
					}
				}(jobs, ds)
			}
			wg.Wait()
		}
	}

	e.mu.Lock()
	for _, j := range jobs {
		e.memo.put(j.hash, j.ids, j.v)
		out[j.first] = j.v
	}
	e.mu.Unlock()
	for _, d := range dups {
		out[d.cand] = jobs[d.job].v
	}

	// Emitted from the calling goroutine after the fan-out joins, so the trace
	// stream is identical at any worker count.
	e.rec.Add("eval.computed", int64(len(jobs)))
	if e.rec != nil {
		e.rec.Observe("eval.batch_size", float64(len(cands)))
		e.rec.Observe("eval.batch_fanout", float64(len(jobs)))
		e.rec.Emit("eval.batch",
			telemetry.Int("cands", len(cands)),
			telemetry.Int("hits", hits),
			telemetry.Int("dups", len(dups)),
			telemetry.Int("unscored", refused),
			telemetry.Int("jobs", len(jobs)))
	}
	return out
}

// computeJob dispatches one job to its scoring path: a flip against the
// delta state, or the full re-merge. Both return bit-identical values for
// the same subset.
func (e *Evaluator) computeJob(j *batchJob, ds *deltaState, sc *scratch) float64 {
	if j.delta {
		return e.computeFlip(j.ids, j.flip, ds, sc)
	}
	return e.compute(j.ids, sc)
}

// Status derives how the solve ended from the evaluator's context and the
// budget: a dead context wins (deadline over cancel per its Err), then budget
// exhaustion, else completed.
func (e *Evaluator) Status() Status {
	if err := e.ctx.Err(); err != nil {
		if err == context.DeadlineExceeded {
			return StatusDeadline
		}
		return StatusCanceled
	}
	if e.Exhausted() {
		return StatusExhausted
	}
	return StatusCompleted
}

// Solution materializes the full solution report for a chosen subset,
// re-deriving the mediated schema and per-QEF breakdown from one Match(S).
// The reported quality is the true Q(S), read from the breakdown's context
// outside the MaxEvals budget, and Status records how the solve ended.
func (e *Evaluator) Solution(ids []schema.SourceID, solver string) *Solution {
	sorted := SortIDs(append([]schema.SourceID(nil), ids...))
	sol := &Solution{
		IDs:    sorted,
		Evals:  e.Evals(),
		Solver: solver,
		Status: e.Status(),
	}
	ctx := qef.NewContext(e.p.Universe, sorted)
	// The breakdown reads every QEF, so the union is merged whatever the
	// weights. It is no evaluation: its merges stay out of pcsa.merges.
	sc := e.scratchPool.Get().(*scratch)
	ctx.Union, _ = mergeUnion(e.p.Universe, sorted, sc, true)
	e.scratchPool.Put(sc)
	if e.sharded != nil {
		if res, err := e.sharded.Match(sorted); err == nil && res.OK {
			sol.Schema = res.Schema
			sol.GAQuality = res.GAQuality
			sol.MatchOK = true
			ctx.F1 = res.Quality
		}
	}
	sol.Breakdown = e.p.Quality.Breakdown(ctx)
	// Q(S) from the same context is bit-identical to compute's: Eval skips
	// every QEF of weight <= 0, and this context differs from compute's only
	// in inputs that only such QEFs read (F1, the union, the cooperative
	// union). An infeasible set scores 0, as in compute.
	if e.p.Feasible(sorted) {
		sol.Quality = e.p.Quality.Eval(ctx)
	}
	e.rec.Emit("solver.done",
		telemetry.Str("solver", solver),
		telemetry.Float("best_q", sol.Quality),
		telemetry.Int("evals", sol.Evals),
		telemetry.Str("status", string(sol.Status)))
	return sol
}

// Search is the shared state local-search solvers operate on: the problem
// split into required sources (fixed) and optional candidates, plus an RNG.
type Search struct {
	// Eval is the shared memoizing evaluator.
	Eval *Evaluator
	// Required are the sources every feasible solution must contain.
	Required []schema.SourceID
	// Optional are all non-required source IDs, ascending.
	Optional []schema.SourceID
	// Rand drives all stochastic choices.
	Rand *rand.Rand
	// MaxSources is m.
	MaxSources int

	addable   []schema.SourceID // Moves' scratch
	droppable []schema.SourceID // Moves' scratch
	moves     []Move            // Moves' result, reused by the next call
	batch     batchBufs         // EvalMoves' buffers, reused by the next call
}

// Release empties its evaluator's memo and returns the memo's storage to the
// package's pool, so the next solve reuses the table this one sized and no Q
// value crosses solves. Solvers call it once their Solution is built. The
// Search and its evaluator must not be used afterwards: Eval is nil, and a
// lookup in the released memo panics.
func (s *Search) Release() {
	if s.Eval != nil {
		s.Eval.release()
		s.Eval = nil
	}
}

// TraceIter records one solver iteration: the current and best-so-far Q plus
// any solver-specific attrs (tabu tenure, annealing temperature, …) on the
// evaluator's recorder. Solvers call it once per iteration from the solve
// goroutine, so trace bytes are identical at any evaluator worker count.
func (s *Search) TraceIter(solver string, iter int, curQ, bestQ float64, extra ...telemetry.Attr) {
	rec := s.Eval.rec
	if rec == nil {
		return
	}
	attrs := make([]telemetry.Attr, 0, 4+len(extra))
	attrs = append(attrs,
		telemetry.Str("solver", solver),
		telemetry.Int("iter", iter),
		telemetry.Float("cur_q", curQ),
		telemetry.Float("best_q", bestQ))
	attrs = append(attrs, extra...)
	rec.Emit("solver.iter", attrs...)
	rec.Add("solver.iters", 1)
	rec.Gauge("solver.best_q", bestQ)
}

// BeginSolve opens the "solver.run" span that wraps a solver's whole search
// loop, so solver.iter / eval.batch events nest under it in the span tree.
// Solvers call it right after NewSearch and End the returned span (on every
// path) once the final Solution has been built. Inert when the evaluator has
// no recorder.
func (s *Search) BeginSolve(solver string) telemetry.Span {
	return s.Eval.rec.BeginSpan("solver.run", telemetry.Str("solver", solver))
}

// Stopped reports whether the solve's context is canceled or past its
// deadline. Solvers check it at iteration boundaries and return best-so-far.
func (s *Search) Stopped() bool { return s.Eval.ctx.Err() != nil }

// NewSearch prepares shared search state bound to ctx (nil means no
// cancellation). It validates the problem. Its evaluator's memo storage comes
// from the package's pool: the caller releases it with Release once done.
func NewSearch(ctx context.Context, p *Problem, opts Options) (*Search, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opts = opts.WithDefaults()
	req := p.Constraints.RequiredSources()
	reqSet := make(map[schema.SourceID]struct{}, len(req))
	for _, id := range req {
		reqSet[id] = struct{}{}
	}
	var pool []schema.SourceID
	if opts.Candidates != nil {
		pool = SortIDs(append([]schema.SourceID(nil), opts.Candidates...))
	} else {
		pool = p.Universe.IDs()
	}
	optional := make([]schema.SourceID, 0, len(pool))
	for _, id := range pool {
		if _, isReq := reqSet[id]; !isReq {
			optional = append(optional, id)
		}
	}
	return &Search{
		Eval:       NewEvaluator(ctx, p, opts),
		Required:   req,
		Optional:   optional,
		Rand:       rand.New(rand.NewSource(opts.Seed)),
		MaxSources: p.MaxSources,
	}, nil
}

// StartSubset returns the search's starting point: the feasible warm-start
// set when one was supplied, otherwise a random feasible subset.
func (s *Search) StartSubset(p *Problem, opts Options) []schema.SourceID {
	if len(opts.Initial) > 0 {
		ids := SortIDs(append([]schema.SourceID(nil), opts.Initial...))
		if p.Feasible(ids) {
			return ids
		}
	}
	return s.RandomSubset()
}

// RandomSubset returns a random feasible subset: all required sources plus a
// random draw of optional sources filling up to MaxSources.
func (s *Search) RandomSubset() []schema.SourceID {
	ids := append([]schema.SourceID(nil), s.Required...)
	free := s.MaxSources - len(ids)
	if free > len(s.Optional) {
		free = len(s.Optional)
	}
	perm := s.Rand.Perm(len(s.Optional))
	for i := 0; i < free; i++ {
		ids = append(ids, s.Optional[perm[i]])
	}
	return SortIDs(ids)
}

// Subset is a mutable feasible source set used by the local-search solvers.
// It holds its members as a sorted, duplicate-free slice, so Apply is a
// binary search and the neighborhood walk in Moves is one merge.
type Subset struct {
	members []schema.SourceID
}

// NewSubset wraps a copy of ids (assumed feasible, in any order) for
// neighborhood exploration.
func (s *Search) NewSubset(ids []schema.SourceID) *Subset {
	return &Subset{members: slices.Compact(SortIDs(slices.Clone(ids)))}
}

// IDs returns a copy of the subset's members, sorted (never nil).
func (ss *Subset) IDs() []schema.SourceID {
	return append(make([]schema.SourceID, 0, len(ss.members)), ss.members...)
}

// Len returns the subset size.
func (ss *Subset) Len() int { return len(ss.members) }

// Clone returns an independent copy.
func (ss *Subset) Clone() *Subset { return &Subset{members: slices.Clone(ss.members)} }

// Apply mutates the subset by one move: drop first, then add, each a no-op
// when the source is already out or in.
func (ss *Subset) Apply(mv Move) {
	if mv.Drop >= 0 {
		if i, ok := slices.BinarySearch(ss.members, mv.Drop); ok {
			ss.members = slices.Delete(ss.members, i, i+1)
		}
	}
	if mv.Add >= 0 {
		if i, ok := slices.BinarySearch(ss.members, mv.Add); !ok {
			ss.members = slices.Insert(ss.members, i, mv.Add)
		}
	}
}

// Move is one neighborhood step: drop a member and/or add a non-member. A
// field of -1 means "no change". Moves generated by Moves are always
// feasibility-preserving.
type Move struct {
	Add  schema.SourceID
	Drop schema.SourceID
}

// NoMove is the identity move.
var NoMove = Move{Add: -1, Drop: -1}

// required reports whether id is constraint-required.
func (s *Search) required(id schema.SourceID) bool {
	for _, r := range s.Required {
		if r == id {
			return true
		}
	}
	return false
}

// Moves samples up to limit distinct feasibility-preserving moves from the
// neighborhood of ss: adds (if below m), drops of non-required members, and
// swaps. The full swap neighborhood is |S|·(N−|S|) moves — far too large for
// Internet-scale universes — so moves are sampled uniformly.
//
// The returned slice is the Search's own and is overwritten by the next call,
// so an iteration of a local search allocates no neighborhood.
func (s *Search) Moves(ss *Subset, limit int) []Move {
	canAdd := ss.Len() < s.MaxSources
	droppable := s.droppable[:0]
	for _, id := range ss.members {
		if !s.required(id) {
			droppable = append(droppable, id)
		}
	}
	s.droppable = droppable
	// Optional and the members are both ascending: one merge walk.
	addable := s.addable[:0]
	i := 0
	for _, id := range s.Optional {
		for i < len(ss.members) && ss.members[i] < id {
			i++
		}
		if i < len(ss.members) && ss.members[i] == id {
			continue
		}
		addable = append(addable, id)
	}
	s.addable = addable

	// Sized up front: at Internet scale the adds alone are a group's whole
	// optional pool, on every iteration.
	if n := len(addable) + len(droppable) + max(limit, 0); cap(s.moves) < n {
		s.moves = make([]Move, 0, n)
	}
	moves := s.moves[:0]
	if canAdd {
		for _, id := range addable {
			moves = append(moves, Move{Add: id, Drop: -1})
		}
	}
	if ss.Len() > 1 {
		for _, id := range droppable {
			moves = append(moves, Move{Add: -1, Drop: id})
		}
	}
	// Swap moves: sample rather than enumerate.
	nswap := limit
	if nswap > 0 && len(droppable) > 0 && len(addable) > 0 {
		for i := 0; i < nswap; i++ {
			moves = append(moves, Move{
				Add:  addable[s.Rand.Intn(len(addable))],
				Drop: droppable[s.Rand.Intn(len(droppable))],
			})
		}
	}
	// Downsample to limit, keeping a uniform random subset.
	if limit > 0 && len(moves) > limit {
		s.Rand.Shuffle(len(moves), func(i, j int) { moves[i], moves[j] = moves[j], moves[i] })
		moves = moves[:limit]
	}
	s.moves = moves
	return moves
}

// EvalMoves scores a whole neighborhood at once: it returns Q(S') for each
// move applied to ss (without mutating it). True single flips score
// incrementally against the image of ss, which the Search keeps from batch
// to batch; other moves (re-adding a member, dropping a non-member) take the
// full re-merge path. Results, memoization, and budget accounting are
// bit-identical to EvalBatch over the applied subsets. The batch's buffers
// are the Search's own: the returned slice is overwritten by the next call.
func (s *Search) EvalMoves(ss *Subset, moves []Move) []float64 {
	b, base := &s.batch, ss.members
	if cap(b.cands) < len(moves) {
		b.cands = make([]candidate, len(moves))
	}
	cands := b.cands[:len(moves)]
	// No applied subset is longer than len(base)+1, so ids never regrows.
	if n := len(moves) * (len(base) + 1); cap(b.ids) < n {
		b.ids = make([]schema.SourceID, 0, n)
	}
	ids := b.ids[:0]
	h := hashIDs(base)
	for i, mv := range moves {
		start := len(ids)
		ids = appendFlip(ids, base, mv)
		cands[i] = candidate{ids: ids[start:len(ids):len(ids)]}
		if validFlip(base, mv) {
			cands[i].hash = flipHash(h, mv)
			cands[i].flip = mv
			cands[i].hasFlip = true
		} else {
			cands[i].hash = hashIDs(cands[i].ids)
		}
	}
	return s.Eval.evalCandidates(cands, base, b)
}
