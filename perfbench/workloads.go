package main

import (
	"context"
	"fmt"
	"math"

	"mube/internal/constraint"
	"mube/internal/fault"
	"mube/internal/match"
	"mube/internal/opt"
	"mube/internal/opt/solvers"
	"mube/internal/pcsa"
	"mube/internal/qef"
	"mube/internal/schema"
	"mube/internal/session"
	"mube/internal/synth"
	"mube/internal/telemetry"
	"mube/internal/watch"
)

// instance is one set-up workload: a fixed, seeded sequence of ops.
type instance interface {
	// op runs op i; its wall time is the op's latency.
	op(ctx context.Context, i int) error
	// check verifies op i's output after it was timed and returns its best Q.
	check(i int) (float64, error)
	// facts reports sizes read from the program once the ops are done
	// (distinct attribute names, signature memory).
	facts() (map[string]float64, error)
}

// workload names a closed loop with one simulated client.
type workload struct {
	name string
	// setups is how many times an untraced run sets the workload up;
	// setup_s is their median.
	setups int
	// qOps is how many ops q_mean averages over: every run does at least
	// that many, so q_mean compares across runs of any length.
	qOps int
	// rssOps is the op count after which peak_rss_mb is read (or the end of
	// the run, if it is shorter), so the metric does not depend on how many
	// ops fit in the run.
	rssOps int
	// attrClocks and attrSpans name the layers whose time counts as
	// attributed in unattributed_frac: benchmark-timed calls, and spans
	// (outermost occurrence only).
	attrClocks []string
	attrSpans  []string
	setup      func(ctx context.Context, seed int64, rec *telemetry.Recorder, m *meter) (instance, error)
}

// workloads are the benchmark's three closed loops, all on one core.
var workloads = []workload{
	{
		name:       "session-700",
		setups:     5,
		qOps:       60,
		rssOps:     300,
		attrClocks: []string{"session.edit"},
		attrSpans:  []string{"session.problem", "solver.run"},
		setup:      setupSession,
	},
	{
		name:      "churn-700",
		setups:    5,
		qOps:      600,
		rssOps:    800,
		attrSpans: []string{"watch.churn", "watch.resolve"},
		setup:     setupChurn,
	},
	{
		name:       "ladder-50k",
		setups:     3,
		qOps:       3,
		rssOps:     6,
		attrClocks: []string{"synth.gen", "match.build", "match.shard"},
		attrSpans:  []string{"partition.group", "partition.refine", "solver.run"},
		setup:      setupLadder,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// tabuBudget is the per-solve search budget of session-700 and churn-700,
// on one core: sequential evaluation, sequential groups.
func tabuBudget() opt.Options {
	return opt.Options{MaxIters: 40, Patience: 12, MaxEvals: -1, Parallel: 1, GroupWorkers: 1}
}

// paperQEFs are the four main QEFs plus the MTTF wsum QEF of §7.1.
func paperQEFs() []qef.QEF {
	return append(qef.MainQEFs(), qef.Characteristic{Char: "mttf", Agg: qef.WSum{}})
}

// checkSolution verifies one solve's output against its problem: |S| ≤ m,
// sorted in-range IDs, required sources present, pinned GAs subsumed by the
// mediated schema, and Q(S) re-scored by opt.Score bit-equal to the reported
// quality.
func checkSolution(p *opt.Problem, sol *opt.Solution) error {
	if sol == nil {
		return fmt.Errorf("nil solution")
	}
	if sol.Status != opt.StatusCompleted && sol.Status != opt.StatusExhausted {
		return fmt.Errorf("status %s", sol.Status)
	}
	if len(sol.IDs) == 0 || len(sol.IDs) > p.MaxSources {
		return fmt.Errorf("|S| = %d outside [1, %d]", len(sol.IDs), p.MaxSources)
	}
	n := schema.SourceID(p.Universe.Len())
	for i, id := range sol.IDs {
		if id < 0 || id >= n || (i > 0 && sol.IDs[i-1] >= id) {
			return fmt.Errorf("IDs not sorted, unique and in [0,%d): %v", n, sol.IDs)
		}
	}
	if !p.Constraints.SatisfiedBy(sol.IDs) {
		return fmt.Errorf("required sources %v missing from %v", p.Constraints.RequiredSources(), sol.IDs)
	}
	if len(p.Constraints.GAs) > 0 && (!sol.MatchOK || !p.Constraints.SchemaSatisfies(sol.Schema)) {
		return fmt.Errorf("pinned GAs not subsumed by the mediated schema")
	}
	q, err := opt.Score(p, sol.IDs)
	if err != nil {
		return fmt.Errorf("re-score: %w", err)
	}
	if math.Float64bits(q) != math.Float64bits(sol.Quality) {
		return fmt.Errorf("re-scored Q %v != reported %v", q, sol.Quality)
	}
	return nil
}

// paperSeed generates the paper's universes (exp.Full uses seed 1).
const paperSeed = 1

// sessionRun is session-700: one user's µBE loop over the paper's largest
// Fig 5 universe. One op is one edit followed by Session.SolveContext. Its
// work does not depend on the workload seed: every solve warm-starts from the
// previous one, so a seeded choice early on changes the cost of every later
// solve, by more than the changes the benchmark is meant to detect.
type sessionRun struct {
	s    *session.Session
	conf []schema.SourceID
	rec  *telemetry.Recorder
	m    *meter
	sol  *opt.Solution
}

func setupSession(ctx context.Context, seed int64, rec *telemetry.Recorder, m *meter) (instance, error) {
	cfg := synth.Scaled(1)
	cfg.NumSources = 700
	cfg.Seed = paperSeed
	cfg.Sig = pcsa.Config{NumMaps: 128}
	var res *synth.Result
	if err := m.time("synth.gen", func() (err error) {
		res, err = synth.Generate(cfg)
		return err
	}); err != nil {
		return nil, err
	}
	if len(res.Conformant) == 0 {
		return nil, fmt.Errorf("session-700: no conformant sources")
	}
	r := &sessionRun{conf: res.Conformant, rec: rec, m: m}
	// session.New builds the matcher (match.New) and validates the spec.
	if err := m.time("match.build", func() (err error) {
		r.s, err = session.New(session.Config{
			Universe:      res.Universe,
			MaxSources:    20,
			Solver:        "tabu",
			SolverOptions: tabuBudget(),
			Recorder:      rec,
		})
		return err
	}); err != nil {
		return nil, err
	}
	sol, err := r.s.SolveContext(ctx)
	if err != nil {
		return nil, err
	}
	r.sol = sol
	return r, nil
}

// edit applies step i of the fixed six-step edit cycle.
func (r *sessionRun) edit(i int) error {
	cycle := i / 6
	switch i % 6 {
	case 1:
		return r.s.RequireSource(r.conf[cycle%len(r.conf)])
	case 2:
		return r.s.PinSolutionGA(len(r.s.History())-1, 0)
	case 3:
		w := 0.4
		if cycle%2 == 1 {
			w = 0.25
		}
		return r.s.SetWeight(qef.NameCoverage, w)
	case 4:
		theta := 0.6
		if cycle%2 == 1 {
			theta = 0.5
		}
		return r.s.SetTheta(theta)
	case 5:
		r.s.ClearConstraints()
	}
	return nil // step 0: plain re-solve
}

func (r *sessionRun) op(ctx context.Context, i int) error {
	r.sol = nil
	if err := r.m.time("session.edit", func() error { return r.edit(i) }); err != nil {
		return fmt.Errorf("edit step %d: %w", i%6, err)
	}
	return r.m.time("session.solve", func() (err error) {
		r.sol, err = r.s.SolveContext(ctx)
		return err
	})
}

func (r *sessionRun) check(int) (float64, error) {
	// Materializing the problem for the check must not reach the trace.
	r.s.Instrument(nil, "")
	p, err := r.s.Problem()
	r.s.Instrument(r.rec, "")
	if err != nil {
		return 0, err
	}
	if err := checkSolution(p, r.sol); err != nil {
		return 0, err
	}
	return r.sol.Quality, nil
}

func (r *sessionRun) facts() (map[string]float64, error) {
	r.s.Instrument(nil, "")
	p, err := r.s.Problem()
	r.s.Instrument(r.rec, "")
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"match.names":   float64(p.Matcher.SimIDs()),
		"source.sig_mb": float64(r.s.Universe().SignatureBytes()) / (1 << 20),
	}, nil
}

// churnSize is churn-700's universe size; arrivals replace every death.
const churnSize = 700

// churnRun is churn-700: the session shape run through watch.Loop, where
// every op writes the universe. One op is one Loop.Tick. The universe is the
// paper's; the workload seed drives the churn schedule (deaths, drift,
// arrivals) and the per-epoch solver seeds.
type churnRun struct {
	l   *watch.Loop
	rep watch.DeltaReport
}

func setupChurn(ctx context.Context, seed int64, rec *telemetry.Recorder, m *meter) (instance, error) {
	cfg := synth.Scaled(0.01)
	cfg.NumSources = churnSize
	cfg.Seed = paperSeed
	cfg.Sig = pcsa.Config{NumMaps: 128}
	var res *synth.Result
	if err := m.time("synth.gen", func() (err error) {
		res, err = synth.Generate(cfg)
		return err
	}); err != nil {
		return nil, err
	}
	plan, err := fault.ParsePlan("rate=0.1,seed=7")
	if err != nil {
		return nil, err
	}
	arrivals := synth.Scaled(0.01)
	arrivals.Sig = cfg.Sig
	r := &churnRun{}
	// watch.New builds the matcher (match.New) and validates the config.
	if err := m.time("match.build", func() (err error) {
		r.l, err = watch.New(watch.Config{
			Universe:   res.Universe,
			Epochs:     1,
			Seed:       seed,
			ChurnRate:  0.1,
			Arrivals:   arrivals,
			QEFs:       paperQEFs(),
			Weights:    qef.PaperDefaults(),
			MaxSources: 20,
			Solver:     "tabu",
			Options:    tabuBudget(),
			Faults:     plan,
			DeltaPool:  true,
			Recorder:   rec,
		})
		return err
	}); err != nil {
		return nil, err
	}
	// Run is the baseline solve plus one tick; later ticks are the ops.
	reps, err := r.l.Run(ctx)
	if err != nil {
		return nil, err
	}
	r.rep = reps[len(reps)-1]
	return r, nil
}

func (r *churnRun) op(ctx context.Context, _ int) (err error) {
	r.rep, err = r.l.Tick(ctx)
	return err
}

// check verifies the tick's report. The carried solution is not exported;
// QBefore is opt.Score of it on the churned universe, which is 0 for an
// empty, out-of-range or infeasible ID set, so QBefore > 0 shows the IDs the
// previous tick carried are valid after this tick's churn.
func (r *churnRun) check(int) (float64, error) {
	rep := r.rep
	if n := r.l.Universe().Len(); rep.Sources != n || n != churnSize {
		return 0, fmt.Errorf("universe has %d sources, report says %d, want %d", n, rep.Sources, churnSize)
	}
	if rep.Status != string(opt.StatusCompleted) {
		return 0, fmt.Errorf("status %s", rep.Status)
	}
	if !(rep.QBefore > 0 && rep.QBefore <= 1) {
		return 0, fmt.Errorf("carried solution re-scored to %v", rep.QBefore)
	}
	if !(rep.QAfter > 0 && rep.QAfter <= 1) {
		return 0, fmt.Errorf("re-solve Q %v outside (0,1]", rep.QAfter)
	}
	return rep.QAfter, nil
}

func (r *churnRun) facts() (map[string]float64, error) {
	// The loop's matcher is not exported: build one over the current
	// universe to count its distinct names.
	mt, err := match.New(r.l.Universe(), match.Config{})
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"match.names":   float64(mt.SimIDs()),
		"source.sig_mb": float64(r.l.Universe().SignatureBytes()) / (1 << 20),
	}, nil
}

// ladderRun is ladder-50k: time to first solution for a new 50k-source
// universe. One op generates the universe, builds the matcher and its shard
// index, and runs the partitioned solve. Universe seeds cycle over seed,
// seed+1 and seed+2.
type ladderRun struct {
	seed    int64
	rec     *telemetry.Recorder
	m       *meter
	quality *qef.Quality
	solver  opt.Solver
	prob    *opt.Problem
	sol     *opt.Solution
}

func setupLadder(ctx context.Context, seed int64, rec *telemetry.Recorder, m *meter) (instance, error) {
	quality, err := qef.NewQuality(paperQEFs(), qef.PaperDefaults())
	if err != nil {
		return nil, err
	}
	solver, err := solvers.ByName("partition+tabu")
	if err != nil {
		return nil, err
	}
	r := &ladderRun{seed: seed, rec: rec, m: m, quality: quality, solver: solver}
	// Set-up ends with the first op, untimed: a new universe has nothing
	// to set up before it.
	if err := r.op(ctx, 0); err != nil {
		return nil, err
	}
	if _, err := r.check(0); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *ladderRun) op(ctx context.Context, i int) error {
	r.prob, r.sol = nil, nil // let the previous universe go before the next
	cfg := synth.Scaled(0.001)
	cfg.NumSources = 50_000
	cfg.Domains = 32
	cfg.DomainConcepts = 16
	cfg.Seed = r.seed + int64(i%3)
	cfg.Sig = pcsa.Config{NumMaps: 64}
	p := &opt.Problem{Quality: r.quality, MaxSources: 40}
	if err := r.m.time("synth.gen", func() (err error) {
		p.Universe, err = synth.GenerateUniverse(cfg)
		return err
	}); err != nil {
		return err
	}
	if err := r.m.time("match.build", func() (err error) {
		p.Matcher, err = match.New(p.Universe, match.Config{Theta: match.DefaultTheta})
		return err
	}); err != nil {
		return err
	}
	// The shard index is cached on the matcher; the solve reuses it.
	cands := match.PairCandidates()
	if err := r.m.time("match.shard", func() error {
		p.Matcher.NewSharded(constraint.Set{}).SourceGroups()
		return nil
	}); err != nil {
		return err
	}
	r.m.add("match.pair_candidates", float64(match.PairCandidates()-cands))
	opts := opt.Options{
		Seed: r.seed, MaxIters: 30, Patience: 8, MaxEvals: 12_000,
		Parallel: 1, GroupWorkers: 1, Recorder: r.rec,
	}
	r.prob = p
	var err error
	r.sol, err = r.solver.Solve(ctx, p, opts)
	return err
}

func (r *ladderRun) check(int) (float64, error) {
	if err := checkSolution(r.prob, r.sol); err != nil {
		return 0, err
	}
	return r.sol.Quality, nil
}

func (r *ladderRun) facts() (map[string]float64, error) {
	return map[string]float64{
		"match.names":   float64(r.prob.Matcher.SimIDs()),
		"source.sig_mb": float64(r.prob.Universe.SignatureBytes()) / (1 << 20),
	}, nil
}
