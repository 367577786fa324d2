// Package session implements µBE's iterative user-feedback model (§6): the
// user specifies an optimization problem, µBE solves it, and the user reacts
// to the solution — pinning GAs from the output as constraints for the next
// iteration, requiring sources, re-weighting quality dimensions, or moving
// the matching threshold — until satisfied.
//
// By design the constraints the user provides have the same structure as the
// mediated schema µBE outputs, so "modify the output of the current
// iteration to get the input constraints of the next" is a first-class
// operation (PinGA / RequireSolutionSource).
package session

import (
	"context"
	"fmt"
	"time"

	"mube/internal/constraint"
	"mube/internal/match"
	"mube/internal/opt"
	"mube/internal/opt/solvers"
	"mube/internal/probe"
	"mube/internal/qef"
	"mube/internal/schema"
	"mube/internal/source"
	"mube/internal/telemetry"
)

// Spec is the user-editable problem specification of one iteration.
type Spec struct {
	// Weights are the QEF weights (must validate against the QEF list).
	Weights qef.Weights
	// Theta and Beta are the matching threshold and GA size bound.
	Theta float64
	Beta  int
	// Linkage selects cluster similarity (max is the paper's).
	Linkage match.Linkage
	// MaxSources is m.
	MaxSources int
	// Constraints are the current source and GA constraints.
	Constraints constraint.Set
	// Solver names the algorithm ("tabu" by default).
	Solver string
	// SolverOptions bound the solver run.
	SolverOptions opt.Options
	// Health records how the universe was acquired, when it was built by a
	// fault-tolerant prober (probe.BuildUniverse): which sources degraded to
	// uncooperative, which were dropped, and how many retries each took. Nil
	// when the universe was loaded directly. It rides along in the spec so a
	// resumed exploration (SaveSpec/LoadSpec) still knows which sources were
	// misbehaving when the decisions baked into its constraints were made.
	Health *probe.HealthReport
	// TracePath records where this exploration's solver trace is written
	// ("" = tracing off). Like Health it is bookkeeping, not problem input:
	// it rides along in the persisted spec so a resumed session keeps
	// appending to the same trace file, but it never influences the solve.
	TracePath string
}

// Clone deep-copies the spec.
func (s Spec) Clone() Spec {
	c := s
	c.Weights = s.Weights.Clone()
	c.Constraints = s.Constraints.Clone()
	c.Health = s.Health.Clone()
	return c
}

// RemapSources rewrites every SourceID the spec carries for a universe whose
// IDs were compacted by probe.ReprobeUniverse or source.Universe.Remove
// (kept[newID] == oldID, both producers' convention). Constraints that
// reference a dropped source fail the remap with an error wrapping
// constraint.ErrConstraintDropped: after compaction a stale ID is a *valid*
// index into the new universe pointing at some other source, so passing it
// through would silently bind the user's guidance to the wrong source.
// SolverOptions.Initial is only a warm-start hint, so dropped members are
// removed from it rather than rejected.
func (s Spec) RemapSources(kept []schema.SourceID) (Spec, error) {
	out := s.Clone()
	cons, err := s.Constraints.Remap(kept)
	if err != nil {
		return Spec{}, fmt.Errorf("session: remap spec: %w", err)
	}
	out.Constraints = cons
	if init := s.SolverOptions.Initial; init != nil {
		oldToNew := make(map[schema.SourceID]schema.SourceID, len(kept))
		for newID, oldID := range kept {
			oldToNew[oldID] = schema.SourceID(newID)
		}
		remapped := make([]schema.SourceID, 0, len(init))
		for _, id := range init {
			if nid, ok := oldToNew[id]; ok {
				remapped = append(remapped, nid)
			}
		}
		out.SolverOptions.Initial = remapped
	}
	return out, nil
}

// Iteration records one solved problem: the spec that was solved, the
// solution, and the wall-clock time the solver took.
type Iteration struct {
	Index    int
	Spec     Spec
	Solution *opt.Solution
	Elapsed  time.Duration
}

// Clock returns the current time. Sessions read time only through their
// Clock so iteration timing is injectable in tests and the deterministic
// core stays free of bare time.Now calls (enforced by mube-vet's
// determinism analyzer).
type Clock func() time.Time

// Session is one user's iterative exploration over a fixed universe and QEF
// set.
type Session struct {
	u       *source.Universe
	qefs    []qef.QEF
	base    *match.Matcher // carries the similarity table; re-parameterized per iteration
	spec    Spec
	history []Iteration
	clock   Clock
	rec     *telemetry.Recorder
}

// Config assembles a session.
type Config struct {
	// Universe is U (required).
	Universe *source.Universe
	// QEFs defaults to the four main QEFs plus an MTTF wsum QEF if any
	// source defines "mttf".
	QEFs []qef.QEF
	// Weights defaults to uniform over QEFs.
	Weights qef.Weights
	// Similarity, Theta, Beta, Linkage parameterize matching; zero values
	// take the match package defaults.
	Match match.Config
	// MaxSources defaults to min(20, N).
	MaxSources int
	// Solver defaults to "tabu".
	Solver string
	// SolverOptions bound each Solve call.
	SolverOptions opt.Options
	// Health optionally carries the acquisition health report for Universe
	// (see Spec.Health).
	Health *probe.HealthReport
	// Clock supplies iteration timestamps; defaults to time.Now.
	Clock Clock
	// Recorder receives solver traces and evaluator metrics for every Solve
	// (nil = telemetry off). It is injected into each solve's opt.Options, so
	// results stay bit-identical with or without it.
	Recorder *telemetry.Recorder
	// TracePath is recorded in the spec when tracing is on; see
	// Spec.TracePath.
	TracePath string
}

// New opens a session.
func New(cfg Config) (*Session, error) {
	if cfg.Universe == nil {
		return nil, fmt.Errorf("session: nil universe")
	}
	qefs := cfg.QEFs
	if qefs == nil {
		qefs = qef.MainQEFs()
		if _, _, ok := cfg.Universe.CharacteristicRange("mttf"); ok {
			qefs = append(qefs, qef.Characteristic{Char: "mttf", Agg: qef.WSum{}})
		}
	}
	weights := cfg.Weights
	if weights == nil {
		weights = qef.Uniform(qefs)
	}
	matcher, err := match.New(cfg.Universe, cfg.Match)
	if err != nil {
		return nil, err
	}
	maxSources := cfg.MaxSources
	if maxSources == 0 {
		maxSources = 20
		if n := cfg.Universe.Len(); n < maxSources {
			maxSources = n
		}
	}
	solver := cfg.Solver
	if solver == "" {
		solver = "tabu"
	}
	if _, err := solvers.ByName(solver); err != nil {
		return nil, err
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	s := &Session{
		u:     cfg.Universe,
		qefs:  qefs,
		base:  matcher,
		clock: clock,
		rec:   cfg.Recorder,
		spec: Spec{
			Weights:       weights,
			Theta:         matcher.Config().Theta,
			Beta:          matcher.Config().Beta,
			Linkage:       matcher.Config().Linkage,
			MaxSources:    maxSources,
			Solver:        solver,
			SolverOptions: cfg.SolverOptions,
			Health:        cfg.Health.Clone(),
			TracePath:     cfg.TracePath,
		},
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// validate checks the current spec without solving.
func (s *Session) validate() error {
	if err := s.spec.Weights.Validate(s.qefs); err != nil {
		return err
	}
	if err := s.spec.Constraints.Validate(s.u); err != nil {
		return err
	}
	if s.spec.MaxSources < 1 || s.spec.MaxSources > s.u.Len() {
		return fmt.Errorf("session: MaxSources %d out of [1,%d]", s.spec.MaxSources, s.u.Len())
	}
	if req := s.spec.Constraints.RequiredSources(); len(req) > s.spec.MaxSources {
		return fmt.Errorf("session: %d required sources exceed MaxSources %d", len(req), s.spec.MaxSources)
	}
	if _, err := s.base.WithParams(s.spec.Theta, s.spec.Beta, s.spec.Linkage); err != nil {
		return err
	}
	return nil
}

// Universe returns the session's universe.
func (s *Session) Universe() *source.Universe { return s.u }

// Spec returns a copy of the current problem specification.
func (s *Session) Spec() Spec { return s.spec.Clone() }

// QEFs returns the session's QEF list.
func (s *Session) QEFs() []qef.QEF { return s.qefs }

// SetWeights replaces the full weight set.
func (s *Session) SetWeights(w qef.Weights) error {
	if err := w.Validate(s.qefs); err != nil {
		return err
	}
	s.spec.Weights = w.Clone()
	return nil
}

// SetWeight emphasizes one QEF: it sets the named weight and rescales the
// others proportionally so the weights still sum to 1 — the paper's
// "set new weights ... to guide the search towards different parts of the
// search space" without forcing the user to rebalance by hand.
func (s *Session) SetWeight(name string, w float64) error {
	if _, ok := s.spec.Weights[name]; !ok {
		return fmt.Errorf("session: unknown QEF %q", name)
	}
	if w < 0 || w > 1 {
		return fmt.Errorf("session: weight %v out of [0,1]", w)
	}
	// Sum in QEF order, not map order: float addition is not associative,
	// so map order would vary the last bit of the rescaled weights.
	rest := 0.0
	for _, q := range s.qefs {
		if n := q.Name(); n != name {
			rest += s.spec.Weights[n]
		}
	}
	next := s.spec.Weights.Clone()
	next[name] = w
	for n, v := range next {
		if n == name {
			continue
		}
		if rest == 0 {
			next[n] = (1 - w) / float64(len(next)-1)
		} else {
			next[n] = v / rest * (1 - w)
		}
	}
	if err := next.Validate(s.qefs); err != nil {
		return err
	}
	s.spec.Weights = next
	return nil
}

// SetTheta moves the matching threshold for subsequent iterations.
func (s *Session) SetTheta(theta float64) error {
	if _, err := s.base.WithParams(theta, s.spec.Beta, s.spec.Linkage); err != nil {
		return err
	}
	s.spec.Theta = theta
	return nil
}

// SetBeta moves the GA size lower bound.
func (s *Session) SetBeta(beta int) error {
	if _, err := s.base.WithParams(s.spec.Theta, beta, s.spec.Linkage); err != nil {
		return err
	}
	s.spec.Beta = beta
	return nil
}

// SetMaxSources changes m.
func (s *Session) SetMaxSources(m int) error {
	old := s.spec.MaxSources
	s.spec.MaxSources = m
	if err := s.validate(); err != nil {
		s.spec.MaxSources = old
		return err
	}
	return nil
}

// SetSolver selects the algorithm by name.
func (s *Session) SetSolver(name string) error {
	if _, err := solvers.ByName(name); err != nil {
		return err
	}
	s.spec.Solver = name
	return nil
}

// SetSolverOptions bounds subsequent Solve calls.
func (s *Session) SetSolverOptions(o opt.Options) { s.spec.SolverOptions = o }

// Instrument attaches a telemetry recorder for subsequent Solve calls (nil
// disables). tracePath is recorded in the spec for persistence; pass "" when
// the recorder has no trace sink.
func (s *Session) Instrument(rec *telemetry.Recorder, tracePath string) {
	s.rec = rec
	s.spec.TracePath = tracePath
}

// RequireSource adds a source constraint.
func (s *Session) RequireSource(id schema.SourceID) error {
	for _, have := range s.spec.Constraints.Sources {
		if have == id {
			return nil
		}
	}
	next := s.spec.Constraints.Clone()
	next.Sources = append(next.Sources, id)
	return s.setConstraints(next)
}

// DropSourceConstraint removes a source constraint (GA-implied sources are
// unaffected).
func (s *Session) DropSourceConstraint(id schema.SourceID) {
	next := s.spec.Constraints.Clone()
	out := next.Sources[:0]
	for _, have := range next.Sources {
		if have != id {
			out = append(out, have)
		}
	}
	next.Sources = out
	s.spec.Constraints = next
}

// PinGA adds a GA constraint — typically a GA taken (possibly after editing)
// from a previous iteration's output schema. This is the core of the
// Matching-By-Example loop.
func (s *Session) PinGA(g schema.GA) error {
	next := s.spec.Constraints.Clone()
	next.GAs = append(next.GAs, g)
	return s.setConstraints(next)
}

// PinSolutionGA pins GA index gaIdx of iteration iter's solution schema as a
// constraint for subsequent iterations.
func (s *Session) PinSolutionGA(iter, gaIdx int) error {
	if iter < 0 || iter >= len(s.history) {
		return fmt.Errorf("session: iteration %d out of range", iter)
	}
	sol := s.history[iter].Solution
	if gaIdx < 0 || gaIdx >= sol.Schema.Len() {
		return fmt.Errorf("session: GA %d out of range for iteration %d", gaIdx, iter)
	}
	return s.PinGA(sol.Schema.GAs[gaIdx])
}

// ClearConstraints removes all constraints.
func (s *Session) ClearConstraints() {
	s.spec.Constraints = constraint.Set{}
}

// setConstraints installs a constraint set after validation.
func (s *Session) setConstraints(c constraint.Set) error {
	old := s.spec.Constraints
	s.spec.Constraints = c
	if err := s.validate(); err != nil {
		s.spec.Constraints = old
		return err
	}
	return nil
}

// Problem materializes the current spec as an opt.Problem.
func (s *Session) Problem() (*opt.Problem, error) {
	// Re-parameterizing the matcher re-clusters the attribute graph — the
	// match-index build, the one potentially heavy step in materialization.
	msp := s.rec.BeginSpan("match.index",
		telemetry.Float("theta", s.spec.Theta),
		telemetry.Int("beta", s.spec.Beta))
	matcher, err := s.base.WithParams(s.spec.Theta, s.spec.Beta, s.spec.Linkage)
	if err != nil {
		msp.End(telemetry.Str("err", err.Error()))
		return nil, err
	}
	msp.End()
	quality, err := qef.NewQuality(s.qefs, s.spec.Weights)
	if err != nil {
		return nil, err
	}
	return &opt.Problem{
		Universe:    s.u,
		Matcher:     matcher,
		Quality:     quality,
		MaxSources:  s.spec.MaxSources,
		Constraints: s.spec.Constraints.Clone(),
	}, nil
}

// Solve runs one µBE iteration: solve the current spec, append the result to
// the history, and return it.
func (s *Session) Solve() (*opt.Solution, error) {
	//mube:vet-ignore ctxflow — convenience wrapper; SolveContext is the cancelable API
	return s.SolveContext(context.Background())
}

// SolveContext is Solve with a cancellation context: a canceled or expired
// ctx stops the solver within one evaluation batch, and the iteration is
// still recorded with the best-so-far solution and its Status.
func (s *Session) SolveContext(ctx context.Context) (*opt.Solution, error) {
	solver, err := solvers.ByName(s.spec.Solver)
	if err != nil {
		return nil, err
	}
	opts := s.spec.SolverOptions
	// Vary the seed across iterations (unless pinned) so re-solving the
	// same spec can escape an unlucky start.
	if opts.Seed == 0 {
		opts.Seed = int64(len(s.history) + 1)
	}
	// Warm-start from the previous iteration's solution: the user is
	// refining, not starting over. Solvers fall back to a random start if
	// the previous solution no longer satisfies the current constraints.
	if opts.Initial == nil {
		if last := s.Last(); last != nil {
			opts.Initial = last.Solution.IDs
		}
	}
	if opts.Recorder == nil {
		opts.Recorder = s.rec
	}
	span := s.rec.BeginSpan("session.solve",
		telemetry.Str("solver", s.spec.Solver),
		telemetry.Int("iteration", len(s.history)),
		telemetry.Int64("seed", opts.Seed))
	// Problem materialization re-parameterizes the matcher (the match-index
	// build); its own child span makes that cost attributable separately
	// from the solver's search.
	psp := s.rec.BeginSpan("session.problem")
	p, err := s.Problem()
	if err != nil {
		psp.End(telemetry.Str("err", err.Error()))
		span.End()
		return nil, err
	}
	psp.End(telemetry.Int("sources", s.u.Len()))
	start := s.clock()
	sol, err := solver.Solve(ctx, p, opts)
	if err != nil {
		span.End(telemetry.Str("err", err.Error()))
		return nil, err
	}
	span.End(
		telemetry.Float("best_q", sol.Quality),
		telemetry.Int("evals", sol.Evals),
		telemetry.Str("status", string(sol.Status)))
	s.history = append(s.history, Iteration{
		Index:    len(s.history),
		Spec:     s.spec.Clone(),
		Solution: sol,
		Elapsed:  s.clock().Sub(start),
	})
	return sol, nil
}

// History returns the recorded iterations.
func (s *Session) History() []Iteration { return s.history }

// Last returns the most recent iteration, or nil.
func (s *Session) Last() *Iteration {
	if len(s.history) == 0 {
		return nil
	}
	return &s.history[len(s.history)-1]
}
