package solvers

import (
	"context"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"mube/internal/constraint"
	"mube/internal/opt"
	"mube/internal/schema"
	"mube/internal/telemetry"
)

// Partitioned wraps an inner solver with shard decomposition: when the
// matcher's θ-thresholded similarity graph (plus constraint bridges) splits
// the universe into independent source groups — disjoint sets no mediated GA
// can span — each group is solved independently on its own slice of the
// MaxSources and MaxEvals budgets, and the union of the per-group solutions
// is reported as one solution.
//
// The decomposition is exact for the matching term (Match(S) of a union is
// the concatenation of per-group matches; see match.Sharded) and heuristic
// for the data-dependent terms (coverage of a union is not the sum of group
// coverages), which is the standard divide-and-conquer trade at Internet
// scale: a 100k-source universe is far beyond any flat neighborhood search,
// while its per-domain groups are tractable. With one group the wrapper
// delegates to the inner solver unchanged.
//
// After the merge, a bounded cross-group refinement pass (see refine) walks
// the union's boundary with deterministic sampled swaps, accepting only
// strict improvements — recovering some of the coupling the decomposition
// ignored while keeping merged quality a floor.
//
// Determinism: groups are ordered by smallest member id, per-group seeds
// derive from Options.Seed and the group index, and constraint sets never
// span groups — so sub-solves are independent and run concurrently on a
// bounded worker pool (Options.GroupWorkers). Each sub-solve records into a
// private child recorder whose captured stream is replayed into the parent
// trace in group-index order after the workers join, so results are
// bit-identical and traces byte-identical at any group-worker count, like
// every other solver. (Under context cancellation mid-solve, which groups
// observe the cancellation first is inherently scheduling-dependent — the
// same caveat as the evaluator's worker pool.)
type Partitioned struct {
	// Inner solves each group; nil means the default solver (tabu).
	Inner opt.Solver
}

// refineRounds bounds the cross-group refinement pass: after merging group
// solutions it attempts up to this many rounds of boundary swaps.
const refineRounds = 2

// refineMoveCap bounds the number of sampled boundary moves scored per
// refinement round; one EvalMoves call scores the whole sample.
const refineMoveCap = 512

// Name identifies the algorithm, naming the inner solver.
func (ps Partitioned) Name() string { return "partition+" + ps.inner().Name() }

func (ps Partitioned) inner() opt.Solver {
	if ps.Inner == nil {
		return Default()
	}
	return ps.Inner
}

// Solve implements opt.Solver.
func (ps Partitioned) Solve(ctx context.Context, p *opt.Problem, opts opt.Options) (*opt.Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	inner := ps.inner()
	if p.Matcher == nil {
		return inner.Solve(ctx, p, opts)
	}
	groups := p.Matcher.NewSharded(p.Constraints).SourceGroups()
	if len(groups) <= 1 {
		return inner.Solve(ctx, p, opts)
	}
	opts = opts.WithDefaults()

	// Budget split. Required sources are pinned to their group (constraints
	// never span groups — GA constraints bridge the shards they touch), so
	// each group's MaxSources quota starts at its required count and the free
	// slots spread by largest remainder over group sizes. groupOf indexes
	// each source's group; the groups partition the universe.
	reqBy := make(map[schema.SourceID]bool)
	for _, id := range p.Constraints.RequiredSources() {
		reqBy[id] = true
	}
	g := len(groups)
	reqCount := make([]int, g)
	groupOf := make([]int32, p.Universe.Len())
	total := 0
	for i, grp := range groups {
		for _, id := range grp {
			groupOf[id] = int32(i)
			if reqBy[id] {
				reqCount[i]++
			}
		}
		total += len(groups[i])
	}
	free := p.MaxSources
	for _, rc := range reqCount {
		free -= rc
	}
	share := splitBudget(free, groups, reqCount)
	evalShare := splitEvals(opts.MaxEvals, groups, total)

	// Stage the per-group sub-solves. Each job carries its own sub-problem,
	// derived seed, and a private child recorder over a memory sink: workers
	// may run in any order, and the owner replays the captured streams in
	// group-index order afterwards, which is exactly the trace a sequential
	// run would have written.
	jobs := make([]groupJob, 0, g)
	for i, grp := range groups {
		quota := reqCount[i] + share[i]
		if quota == 0 {
			continue // no budget and nothing required: the group sits out
		}
		sub := &opt.Problem{
			Universe:    p.Universe,
			Matcher:     p.Matcher,
			Quality:     p.Quality,
			MaxSources:  quota,
			Constraints: filterConstraints(p.Constraints, groupOf, int32(i)),
		}
		subOpts := opts
		subOpts.Seed = opts.Seed + int64(i)*1_000_003
		subOpts.MaxEvals = evalShare[i]
		subOpts.Candidates = grp
		subOpts.Initial = filterIDs(opts.Initial, groupOf, int32(i))
		sink := &telemetry.MemorySink{}
		subOpts.Recorder = opts.Recorder.Child(sink)
		jobs = append(jobs, groupJob{
			group: i, sources: len(grp), quota: quota,
			sub: sub, opts: subOpts, sink: sink,
		})
	}

	results := make([]groupResult, len(jobs))
	workers := opts.GroupWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for k := range jobs {
			results[k] = ps.solveGroup(ctx, inner, jobs[k])
		}
	} else {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					k := int(cursor.Add(1)) - 1
					if k >= len(jobs) {
						return
					}
					results[k] = ps.solveGroup(ctx, inner, jobs[k])
				}
			}()
		}
		wg.Wait()
	}

	// Replay and aggregate in group order. Error handling mirrors the
	// sequential loop: the first failing group (by index) ends the solve
	// after its own stream is replayed, and later groups' speculative
	// results are dropped without a trace.
	union := make([]schema.SourceID, 0, p.MaxSources)
	evals := 0
	status := opt.StatusCompleted
	for k := range jobs {
		opts.Recorder.Replay(jobs[k].sink.Events())
		opts.Recorder.Merge(jobs[k].opts.Recorder.Snapshot())
		if results[k].err != nil {
			return nil, results[k].err
		}
		sol := results[k].sol
		union = append(union, sol.IDs...)
		evals += sol.Evals
		if rank(sol.Status) > rank(status) {
			status = sol.Status
		}
	}

	// Score the union once, outside any budget, then try to improve it
	// across group boundaries. The refinement's Search is unlimited
	// (MaxEvals -1), so the reported accounting stays the sub-solves' own:
	// Evals is what they consumed, Status the worst way any of them ended;
	// refined quality can only rise (see refine). Its candidate pool is the
	// union, so it builds no universe-wide Optional pool, which refine never
	// reads.
	search, err := opt.NewSearch(ctx, p, opt.Options{
		Seed:       opts.Seed + 999_999_937,
		MaxEvals:   -1,
		Parallel:   opts.Parallel,
		Recorder:   opts.Recorder,
		Candidates: union,
	})
	if err != nil {
		return nil, err
	}
	defer search.Release()
	refined := refine(search, opt.SortIDs(union), groups, groupOf)
	final := search.Eval.Solution(refined, ps.Name())
	final.Evals = evals
	final.Status = status
	return final, nil
}

// groupJob is one staged sub-solve; groupResult is what its worker returns.
type groupJob struct {
	group   int // index into the group list (seed + trace attribute)
	sources int
	quota   int
	sub     *opt.Problem
	opts    opt.Options // Recorder is the group's private child recorder
	sink    *telemetry.MemorySink
}

type groupResult struct {
	sol *opt.Solution
	err error
}

// solveGroup runs one group sub-solve, recording its span subtree on the
// job's private recorder. Runs on a pool worker; it only writes locals and
// its slot of the results slice, so scheduling order cannot leak into
// results or traces.
func (ps Partitioned) solveGroup(ctx context.Context, inner opt.Solver, j groupJob) groupResult {
	// Each sub-solve gets its own span so the profile attributes time and
	// evals to the group, with the inner solver.run nested beneath. The span
	// lands on the group's child recorder, never the shared parent.
	//mube:vet-ignore workerpure — spans go to the group's private recorder; the owner replays them in group order after the join
	gsp := j.opts.Recorder.BeginSpan("partition.group",
		telemetry.Int("group", j.group),
		telemetry.Int("sources", j.sources),
		telemetry.Int("quota", j.quota))
	sol, err := inner.Solve(ctx, j.sub, j.opts)
	if err != nil {
		gsp.End(telemetry.Str("err", err.Error()))
		return groupResult{err: err}
	}
	gsp.End(telemetry.Float("best_q", sol.Quality), telemetry.Int("evals", sol.Evals))
	return groupResult{sol: sol}
}

// refine is the cross-group pass over the merged union: up to refineRounds
// rounds of sampled boundary moves — swaps whose add and drop lie in different
// groups, plus pure adds while under MaxSources — scored in one EvalMoves
// batch per round, accepting the best strictly-improving move (ties break to
// the lowest sample index). Sampling draws on the Search's own PRNG, so the
// pass is deterministic; acceptance requires strict improvement, so the
// returned set's quality is ≥ the union's. Required sources are never
// dropped and every candidate set is scored through the normal evaluator
// (infeasible sets score 0), so feasibility is preserved. ids must be sorted
// and is not mutated; groupOf maps each source to its group.
func refine(search *opt.Search, ids []schema.SourceID, groups [][]schema.SourceID, groupOf []int32) []schema.SourceID {
	if len(ids) == 0 || len(groups) <= 1 || search.Stopped() {
		return ids
	}
	// Group offsets for uniform sampling over the whole shard-covered pool.
	off := make([]int, len(groups)+1)
	for i, grp := range groups {
		off[i+1] = off[i] + len(grp)
	}
	cur := search.NewSubset(ids)
	curQ := search.Eval.Eval(ids)
	sp := search.Eval.Recorder().BeginSpan("partition.refine",
		telemetry.Int("rounds", refineRounds),
		telemetry.Int("sources", len(ids)),
		telemetry.Float("merged_q", curQ))
	accepted := 0
	for round := 0; round < refineRounds && !search.Stopped(); round++ {
		moves := sampleBoundaryMoves(search, cur.IDs(), groups, off, groupOf)
		if len(moves) == 0 {
			break
		}
		qs := search.EvalMoves(cur, moves)
		best := -1
		for i, q := range qs {
			if q > curQ && (best == -1 || q > qs[best]) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		cur.Apply(moves[best])
		curQ = qs[best]
		accepted++
	}
	sp.End(telemetry.Int("accepted", accepted), telemetry.Float("best_q", curQ))
	return cur.IDs()
}

// sampleBoundaryMoves draws up to refineMoveCap distinct cross-group moves
// off the sorted members: each starts from a uniformly sampled non-member
// add; when the set is full (or a coin flip says swap) it pairs the add with
// a droppable member from a different group. Deterministic given the
// Search's PRNG state.
func sampleBoundaryMoves(search *opt.Search, members []schema.SourceID, groups [][]schema.SourceID, off []int, groupOf []int32) []opt.Move {
	droppable := make([]schema.SourceID, 0, len(members))
	for _, id := range members {
		if _, req := slices.BinarySearch(search.Required, id); !req {
			droppable = append(droppable, id)
		}
	}
	canAdd := len(members) < search.MaxSources
	if !canAdd && len(droppable) == 0 {
		return nil
	}
	rng, total := search.Rand, off[len(groups)]
	moves := make([]opt.Move, 0, refineMoveCap)
	seen := make(map[opt.Move]bool, refineMoveCap)
	for attempts := 0; attempts < refineMoveCap*8 && len(moves) < refineMoveCap; attempts++ {
		x := rng.Intn(total)
		gi := 0
		for x >= off[gi+1] {
			gi++
		}
		a := groups[gi][x-off[gi]]
		if _, in := slices.BinarySearch(members, a); in {
			continue
		}
		mv := opt.Move{Add: a, Drop: -1}
		if len(droppable) > 0 && (!canAdd || rng.Intn(2) == 1) {
			d := droppable[rng.Intn(len(droppable))]
			if groupOf[d] == int32(gi) {
				continue // within-group: the sub-solver's job, not refinement's
			}
			mv.Drop = d
		} else if !canAdd {
			continue
		}
		if seen[mv] {
			continue
		}
		seen[mv] = true
		moves = append(moves, mv)
	}
	return moves
}

// rank orders statuses by severity for aggregation.
func rank(s opt.Status) int {
	switch s {
	case opt.StatusCanceled:
		return 3
	case opt.StatusDeadline:
		return 2
	case opt.StatusExhausted:
		return 1
	default:
		return 0
	}
}

// splitBudget distributes free slots over groups by largest remainder on
// group size, capping each group at its own size minus its required count.
// Deterministic: remainder ties break on group index.
func splitBudget(free int, groups [][]schema.SourceID, reqCount []int) []int {
	g := len(groups)
	share := make([]int, g)
	if free <= 0 {
		return share
	}
	total := 0
	for _, grp := range groups {
		total += len(grp)
	}
	capacity := make([]int, g)
	assigned := 0
	type frac struct{ rem, idx int }
	fracs := make([]frac, g)
	for i, grp := range groups {
		capacity[i] = len(grp) - reqCount[i]
		s := free * len(grp) / total
		if s > capacity[i] {
			s = capacity[i]
		}
		share[i] = s
		assigned += s
		fracs[i] = frac{rem: (free * len(grp)) % total, idx: i}
	}
	sort.Slice(fracs, func(a, b int) bool {
		if fracs[a].rem != fracs[b].rem {
			return fracs[a].rem > fracs[b].rem
		}
		return fracs[a].idx < fracs[b].idx
	})
	for left := free - assigned; left > 0; {
		gave := false
		for _, f := range fracs {
			if left == 0 {
				break
			}
			if share[f.idx] < capacity[f.idx] {
				share[f.idx]++
				left--
				gave = true
			}
		}
		if !gave {
			break // every group is at capacity; leftover slots go unused
		}
	}
	return share
}

// splitEvals divides the evaluation budget proportionally to group size.
// Non-positive budgets (unlimited) pass through; positive budgets give every
// solved group at least one evaluation.
func splitEvals(maxEvals int, groups [][]schema.SourceID, total int) []int {
	out := make([]int, len(groups))
	if maxEvals <= 0 {
		for i := range out {
			out[i] = maxEvals
		}
		return out
	}
	for i, grp := range groups {
		e := maxEvals * len(grp) / total
		if e < 1 {
			e = 1
		}
		out[i] = e
	}
	return out
}

// filterConstraints restricts a constraint set to the sources of group gi.
// Constraints never span groups, so this is a partition of the set, not an
// approximation.
func filterConstraints(cons constraint.Set, groupOf []int32, gi int32) constraint.Set {
	var out constraint.Set
	for _, id := range cons.Sources {
		if groupOf[id] == gi {
			out.Sources = append(out.Sources, id)
		}
	}
	for _, ga := range cons.GAs {
		refs := ga.Refs()
		if len(refs) > 0 && groupOf[refs[0].Source] == gi {
			out.GAs = append(out.GAs, ga)
		}
	}
	return out
}

// filterIDs keeps the ids of group gi (for warm starts). A warm start is
// not validated, so an id outside the universe belongs to no group.
func filterIDs(ids []schema.SourceID, groupOf []int32, gi int32) []schema.SourceID {
	var out []schema.SourceID
	for _, id := range ids {
		if id >= 0 && int(id) < len(groupOf) && groupOf[id] == gi {
			out = append(out, id)
		}
	}
	return out
}
