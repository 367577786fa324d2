// Package opt defines µBE's constrained optimization problem (§2.5) and the
// shared machinery its solvers build on: a memoizing objective evaluator,
// feasibility rules, and the neighborhood moves used by the local-search
// solvers.
//
// The problem: given a universe U, QEFs F with weights W, source constraints
// C, GA constraints G and a budget m, find
//
//	argmax_{S ⊆ U} Q(S) = Σ w_i·F_i(S)
//	subject to |S| ≤ m, C ⊆ S, G ⊑ M,
//	           F1({g}) ≥ θ and |g| ≥ β for all g ∈ M − G,
//
// where M is the mediated schema Match(S) produces. The θ/β/G⊑M constraints
// are enforced inside the Match operator itself (package match); C ⊆ S and
// |S| ≤ m are enforced here as hard feasibility rules.
package opt

import (
	"context"
	"fmt"
	"sort"

	"mube/internal/constraint"
	"mube/internal/match"
	"mube/internal/qef"
	"mube/internal/schema"
	"mube/internal/source"
	"mube/internal/telemetry"
)

// Problem is one fully specified optimization problem. Between µBE
// iterations the user edits constraints, weights, and thresholds and solves
// a fresh Problem.
type Problem struct {
	// Universe is U.
	Universe *source.Universe
	// Matcher is the Match(S) operator (carries θ, β, and the similarity
	// measure). May be nil only if no QEF needs matching.
	Matcher *match.Matcher
	// Quality is the weighted objective Q(S).
	Quality *qef.Quality
	// MaxSources is m, the largest source set the user will accept.
	MaxSources int
	// Constraints are the user's source and GA constraints.
	Constraints constraint.Set
}

// Validate checks the problem for internal consistency.
func (p *Problem) Validate() error {
	if p.Universe == nil {
		return fmt.Errorf("opt: nil universe")
	}
	if p.Quality == nil {
		return fmt.Errorf("opt: nil quality objective")
	}
	if p.MaxSources < 1 {
		return fmt.Errorf("opt: MaxSources %d < 1", p.MaxSources)
	}
	if p.MaxSources > p.Universe.Len() {
		return fmt.Errorf("opt: MaxSources %d exceeds universe size %d", p.MaxSources, p.Universe.Len())
	}
	if err := p.Constraints.Validate(p.Universe); err != nil {
		return err
	}
	if req := p.Constraints.RequiredSources(); len(req) > p.MaxSources {
		return fmt.Errorf("opt: %d required sources exceed MaxSources %d", len(req), p.MaxSources)
	}
	for _, f := range p.Quality.QEFs {
		if _, needsMatch := f.(qef.MatchQuality); needsMatch && p.Matcher == nil {
			return fmt.Errorf("opt: matching-quality QEF requires a Matcher")
		}
	}
	if p.Matcher != nil && p.Matcher.NumSources() < p.Universe.Len() {
		return fmt.Errorf("opt: matcher covers %d sources, universe has %d (rebuild or Rebind it after the universe grew)",
			p.Matcher.NumSources(), p.Universe.Len())
	}
	if p.Matcher != nil && p.Matcher.SchemaVersion() != p.Universe.SchemaVersion() {
		return fmt.Errorf("opt: matcher built at universe schema version %d, universe is at %d (rebuild or Rebind it after a Remove or Add)",
			p.Matcher.SchemaVersion(), p.Universe.SchemaVersion())
	}
	return nil
}

// Feasible reports whether ids satisfies the hard constraints: no
// duplicates, all IDs in range, C ⊆ S, and |S| ≤ m. The evaluator calls it
// once per candidate with sorted ids, for which the strictly-ascending scan
// proves dup-freeness without allocating; unsorted inputs fall back to a map.
func (p *Problem) Feasible(ids []schema.SourceID) bool {
	if len(ids) > p.MaxSources {
		return false
	}
	n := schema.SourceID(p.Universe.Len())
	sorted := true
	for i, id := range ids {
		if id < 0 || id >= n {
			return false
		}
		if i > 0 && ids[i-1] >= id {
			sorted = false
		}
	}
	if !sorted {
		seen := make(map[schema.SourceID]struct{}, len(ids))
		for _, id := range ids {
			if _, dup := seen[id]; dup {
				return false
			}
			seen[id] = struct{}{}
		}
	}
	return p.Constraints.SatisfiedBy(ids)
}

// Status reports how a solve ended. Solvers never die silently: a canceled
// or timed-out run still returns its best-so-far solution, labeled with the
// reason it stopped.
type Status string

const (
	// StatusCompleted: the solver ran its full schedule (iterations and
	// patience) within budget.
	StatusCompleted Status = "completed"
	// StatusDeadline: the context's deadline expired; the solution is the
	// best found before the cutoff.
	StatusDeadline Status = "deadline"
	// StatusCanceled: the context was canceled; best-so-far returned.
	StatusCanceled Status = "canceled"
	// StatusExhausted: the MaxEvals budget ran out before the schedule did.
	StatusExhausted Status = "budget-exhausted"
)

// Solution is the output of a solver: the chosen source set, its overall
// quality and per-QEF breakdown, and the mediated schema Match(S) generated
// for it.
type Solution struct {
	// IDs is the chosen source set S, sorted.
	IDs []schema.SourceID
	// Quality is Q(S).
	Quality float64
	// Breakdown maps QEF name → raw (unweighted) value.
	Breakdown map[string]float64
	// Schema is the generated mediated schema M (empty if matching failed
	// or no matcher was configured).
	Schema schema.Mediated
	// GAQuality aligns with Schema.GAs.
	GAQuality []float64
	// MatchOK reports whether Match(S) produced a schema valid on C.
	MatchOK bool
	// Evals is the number of distinct objective evaluations the solver
	// consumed.
	Evals int
	// Solver names the algorithm that produced this solution.
	Solver string
	// Status records how the solve ended (completed, deadline, canceled,
	// budget-exhausted).
	Status Status
}

// SourceNames resolves the solution's source IDs to names.
func (s *Solution) SourceNames(u *source.Universe) []string {
	names := make([]string, len(s.IDs))
	for i, id := range s.IDs {
		names[i] = u.Source(id).Name
	}
	return names
}

// Options bound a solver run. Zero values select solver-appropriate
// defaults.
type Options struct {
	// Seed seeds the solver's random number generator; runs with the same
	// seed are reproducible.
	Seed int64
	// MaxEvals caps the number of distinct objective evaluations (cache
	// misses). Default 3000; a negative value means unlimited (bounded by
	// MaxIters/Patience only).
	MaxEvals int
	// MaxIters caps solver iterations. Default 300.
	MaxIters int
	// Patience stops the search after this many consecutive iterations
	// without improving the best solution. Default 40.
	Patience int
	// Initial warm-starts the search from this source set instead of a
	// random feasible subset, when the local-search solver supports it and
	// the set is feasible. µBE's iterative sessions use this to continue
	// from the previous iteration's solution.
	Initial []schema.SourceID
	// Parallel sets the evaluator's batch worker-pool size: 0 uses
	// GOMAXPROCS, 1 evaluates sequentially, n > 1 uses n workers. Solver
	// results are bit-identical for every setting (see Evaluator), so this
	// trades wall-clock time only and is not part of the problem spec.
	Parallel int
	// Recorder receives solver traces and evaluator metrics for this run.
	// nil (the default) disables telemetry. Like Parallel it is not part of
	// the problem spec: solver results are bit-identical with or without a
	// recorder attached.
	Recorder *telemetry.Recorder
	// Candidates, when non-nil, restricts the search's optional pool to this
	// id set instead of the whole universe (required sources always stay in).
	// The partitioned solve mode uses it to confine each sub-solve to one
	// source partition. IDs must be valid; order does not matter.
	Candidates []schema.SourceID
	// GroupWorkers bounds the partitioned solver's group-level worker pool:
	// how many group sub-solves run concurrently (0 = GOMAXPROCS,
	// 1 = sequential). Groups are constraint-disjoint and independently
	// seeded, and each sub-solve records into a private recorder replayed in
	// group order, so results and traces are bit- and byte-identical at any
	// setting — only wall-clock changes. Orthogonal to Parallel, which sizes
	// the evaluator pool inside each sub-solve.
	GroupWorkers int
}

// Defaults for Options' zero values.
const (
	DefaultMaxEvals = 3000
	DefaultMaxIters = 300
	DefaultPatience = 40
)

// WithDefaults fills zero fields with the package defaults.
func (o Options) WithDefaults() Options {
	if o.MaxEvals == 0 {
		o.MaxEvals = DefaultMaxEvals
	}
	if o.MaxIters == 0 {
		o.MaxIters = DefaultMaxIters
	}
	if o.Patience == 0 {
		o.Patience = DefaultPatience
	}
	return o
}

// Solver is a strategy that maximizes a Problem's objective. Implementations
// live in the subpackages tabu, sls, anneal, pso, random, and exhaustive.
type Solver interface {
	// Name identifies the algorithm.
	Name() string
	// Solve returns the best solution found within the options' budget. A
	// canceled or deadline-exceeded ctx stops the search within one
	// evaluation batch and returns best-so-far with the matching
	// Solution.Status — never an error.
	Solve(ctx context.Context, p *Problem, opts Options) (*Solution, error)
}

// SortIDs sorts a source-ID slice in place and returns it.
func SortIDs(ids []schema.SourceID) []schema.SourceID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Score evaluates Q(S) for one explicit source set under p — the one-shot
// form of the evaluator, for re-scoring a prior solution against a changed
// problem (a watch epoch after churn, report tooling). ids may arrive
// unsorted and is not modified; an infeasible set scores 0, exactly as it
// would inside a solve.
func Score(p *Problem, ids []schema.SourceID) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	//mube:vet-ignore ctxflow — Score's signature supplies no context, and one evaluation has nothing to cancel
	ev := NewEvaluator(context.TODO(), p, Options{MaxEvals: -1})
	defer ev.release()
	return ev.Eval(SortIDs(append([]schema.SourceID(nil), ids...))), nil
}
