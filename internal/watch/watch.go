// Package watch implements µBE's online-integration loop (ROADMAP item 3):
// sources on the open Internet appear, drift, and die, so instead of solving
// a frozen snapshot the watch loop advances a virtual clock in epochs. Each
// tick applies a seeded churn schedule (MTTF-driven deaths, vocabulary
// drift, new-source arrivals from synth.Stream), reprobes the survivors
// under the session's fault plan, folds the result into the universe
// *incrementally* — Remove/UpdateSynopsis/Add change only the sources they
// name, and the universe's union is ORed once per epoch when next read —
// rebinds the matcher to reuse every similarity already computed, and
// warm-starts the re-solve from the previous epoch's solution.
//
// Determinism contract: the entire loop is a pure function of its Config.
// Time comes from a fault.VirtualClock, randomness from one seeded
// math/rand stream drawn in universe order, fault fates from the injector's
// pure per-(name,attempt,now) hashes, and the solver inherits the
// bit-identical-at-any-worker-count evaluator. The per-epoch DeltaReport
// trace is therefore byte-identical across runs and worker counts.
package watch

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"mube/internal/constraint"
	"mube/internal/fault"
	"mube/internal/match"
	"mube/internal/opt"
	"mube/internal/opt/solvers"
	"mube/internal/pcsa"
	"mube/internal/probe"
	"mube/internal/qef"
	"mube/internal/schema"
	"mube/internal/source"
	"mube/internal/synth"
	"mube/internal/telemetry"
)

// epochStep is the virtual time between ticks: it sets how far each source
// moves through its flap schedule between reprobes.
const epochStep = 24 * time.Hour

// Config parameterizes a watch loop.
type Config struct {
	// Universe is the epoch-0 world (required). The loop mutates it in
	// place; hand it a private copy if the caller needs the original.
	Universe *source.Universe
	// Epochs is the number of churn ticks to run (≥ 1).
	Epochs int
	// Seed drives the churn schedule and the per-epoch solver seeds.
	// 0 means 1.
	Seed int64
	// ChurnRate is the expected fraction of sources touched per epoch:
	// half the budget goes to MTTF-weighted deaths (replaced by arrivals),
	// half to vocabulary drift. 0 disables churn; reprobe still runs.
	ChurnRate float64

	// Arrivals shapes the sources that replace deaths, via synth.Stream.
	// NumSources, Seed, and NamePrefix are overridden per epoch; Sig
	// defaults to the universe's signature config and must match it.
	Arrivals synth.Config

	// Match, QEFs, Weights, MaxSources, Solver, and Options specify the
	// per-epoch problem exactly as a session would: QEFs defaults to the
	// main QEFs (plus MTTF when any source defines it), Weights to uniform,
	// MaxSources to min(20, N), Solver to "tabu". Options.Seed and
	// Options.Initial are managed by the loop.
	Match      match.Config
	QEFs       []qef.QEF
	Weights    qef.Weights
	MaxSources int
	Solver     string
	Options    opt.Options
	// Constraints is user guidance carried across epochs. A constraint
	// whose source dies is dropped (and counted in the DeltaReport) rather
	// than failing the loop — the user is not there to fix it mid-run.
	Constraints constraint.Set

	// Probe and Faults drive the per-epoch reprobe: every cooperative
	// source runs the retry/breaker state machine against the injected
	// fault plan. The zero plan is a clean network.
	Probe  probe.Policy
	Faults fault.Plan

	// DeltaPool restricts each warm re-solve's optional pool to the carried
	// solution plus the sources this epoch actually touched (arrivals,
	// drift, degradations, recoveries) — the delta re-solve mode. Untouched
	// sources that lost yesterday keep losing today without being
	// re-searched, which is where the warm eval saving comes from; the cold
	// reference always searches the full universe. Off by default: the
	// exhaustive differential (warm best_q == cold best_q) only holds over
	// identical pools.
	DeltaPool bool

	// Clock optionally injects the loop's virtual clock; nil means a fresh
	// clock at the Unix epoch. Inject one to share it with a
	// telemetry.NewClocked recorder, so epoch events carry virtual t_ns.
	Clock *fault.VirtualClock

	// Cold additionally runs the from-scratch reference each epoch — full
	// universe rebuild, cold matcher, cold-started solve — to fill the
	// DeltaReport's ColdQ/ColdEvals fields. This is the differential and
	// benchmark mode; it roughly doubles (and more) the per-epoch cost.
	Cold bool

	// Recorder receives one "watch.epoch" event per tick (nil = off). The
	// loop stamps events with its own virtual clock when the recorder was
	// built with NewClocked on that clock.
	Recorder *telemetry.Recorder
}

// Loop is a running watch session. Not safe for concurrent use; the solver's
// internal evaluation parallelism is configured via Config.Options.Parallel
// as usual.
type Loop struct {
	cfg    Config
	u      *source.Universe
	m      *match.Matcher
	clock  *fault.VirtualClock
	prober *probe.Prober
	rng    *rand.Rand
	solver opt.Solver

	qefs    []qef.QEF
	weights qef.Weights
	cons    constraint.Set
	// prev is the previous epoch's solution in current universe IDs — the
	// warm start.
	prev []schema.SourceID
	// pristine remembers the last-known synopses of degraded sources by
	// name, so a source that recovers across reprobe rounds can be restored
	// without refetching data the loop cannot fetch. An entry leaves when
	// its source recovers or dies.
	pristine map[string]pristineSyn
	// touched accumulates the IDs churn altered during the current tick —
	// the warm re-solve's extra candidates in DeltaPool mode.
	touched []schema.SourceID
	mttfRef float64
	epoch   int
}

// pristineSyn is the cached cooperative form of a currently-degraded source.
type pristineSyn struct {
	card int64
	sig  *pcsa.Signature
}

// Clock exposes the loop's virtual clock — epoch timestamps for recorders
// and tests.
func (l *Loop) Clock() *fault.VirtualClock { return l.clock }

// Universe exposes the loop's (mutating) universe.
func (l *Loop) Universe() *source.Universe { return l.u }

// Epoch returns the number of completed ticks.
func (l *Loop) Epoch() int { return l.epoch }

// New validates cfg and assembles a loop. The virtual clock starts at the
// Unix epoch; the baseline solve has not run yet — Run performs it before
// the first tick.
func New(cfg Config) (*Loop, error) {
	if cfg.Universe == nil {
		return nil, fmt.Errorf("watch: nil universe")
	}
	if cfg.Epochs < 1 {
		return nil, fmt.Errorf("watch: epochs %d < 1", cfg.Epochs)
	}
	if cfg.ChurnRate < 0 || cfg.ChurnRate > 1 {
		return nil, fmt.Errorf("watch: churn rate %v out of [0,1]", cfg.ChurnRate)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Arrivals.Sig == (pcsa.Config{}) {
		cfg.Arrivals.Sig = cfg.Universe.SignatureConfig()
	}
	if cfg.Arrivals.PoolSize == 0 {
		// Caller gave no arrival shape: default to a reduced-scale Books
		// stream (or multi-domain, if only Domains was set) matching the
		// universe's signature config.
		base := synth.Scaled(0.01)
		base.Sig = cfg.Arrivals.Sig
		base.Domains = cfg.Arrivals.Domains
		base.DomainConcepts = cfg.Arrivals.DomainConcepts
		cfg.Arrivals = base
	}
	if cfg.Arrivals.Sig != cfg.Universe.SignatureConfig() {
		return nil, fmt.Errorf("watch: arrival signature config %+v does not match universe", cfg.Arrivals.Sig)
	}
	if cfg.Solver == "" {
		cfg.Solver = "tabu"
	}
	solver, err := solvers.ByName(cfg.Solver)
	if err != nil {
		return nil, err
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
	if err := weights.Validate(qefs); err != nil {
		return nil, err
	}
	if err := cfg.Constraints.Validate(cfg.Universe); err != nil {
		return nil, err
	}
	m, err := match.New(cfg.Universe, cfg.Match)
	if err != nil {
		return nil, err
	}
	plan := cfg.Faults
	if plan.Seed == 0 {
		plan.Seed = cfg.Seed
	}
	clock := cfg.Clock
	if clock == nil {
		clock = fault.NewVirtualClock(time.Unix(0, 0).UTC())
	}
	l := &Loop{
		cfg:      cfg,
		u:        cfg.Universe,
		m:        m,
		clock:    clock,
		prober:   probe.New(cfg.Probe, clock, fault.NewInjector(plan), cfg.Seed),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		solver:   solver,
		qefs:     qefs,
		weights:  weights,
		cons:     cfg.Constraints.Clone(),
		pristine: make(map[string]pristineSyn),
		mttfRef:  meanCharacteristic(cfg.Universe, "mttf"),
	}
	return l, nil
}

// meanCharacteristic returns the mean of the named characteristic over the
// sources that define it, or 0 when none does. Fixed at construction so the
// death schedule's MTTF reference does not wander with churn.
func meanCharacteristic(u *source.Universe, name string) float64 {
	sum, n := 0.0, 0
	for _, s := range u.Sources() {
		if v, ok := s.Characteristic(name); ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// problem materializes u, its matcher m and the loop's constraints as an
// opt.Problem, clamping MaxSources to the shrunken universe when needed. The
// epoch's solve passes the loop's own universe and matcher, the cold
// reference its rebuilt ones, whose IDs align with the loop's.
func (l *Loop) problem(u *source.Universe, m *match.Matcher) (*opt.Problem, error) {
	quality, err := qef.NewQuality(l.qefs, l.weights)
	if err != nil {
		return nil, err
	}
	maxS := l.cfg.MaxSources
	if maxS == 0 {
		maxS = 20
	}
	if n := u.Len(); maxS > n {
		maxS = n
	}
	return &opt.Problem{
		Universe:    u,
		Matcher:     m,
		Quality:     quality,
		MaxSources:  maxS,
		Constraints: l.cons.Clone(),
	}, nil
}

// solve runs one epoch's solver pass. warm carries the remapped previous
// solution (nil for a cold start); cands, when non-nil, restricts the
// optional pool (DeltaPool mode). The per-epoch seed keeps re-solves
// reproducible yet decorrelated across epochs.
func (l *Loop) solve(ctx context.Context, p *opt.Problem, warm, cands []schema.SourceID) (*opt.Solution, error) {
	opts := l.cfg.Options
	opts.Seed = l.cfg.Seed + int64(l.epoch)*1_000_003 + 1
	opts.Initial = warm
	opts.Candidates = cands
	if len(cands) > 0 && l.u.Len() > 0 {
		// Delta mode: search effort proportional to the pool's share of the
		// universe. A warm re-solve over k of N sources gets k/N of the
		// configured iteration and evaluation budgets (at least one
		// iteration) — restricting the pool without shrinking the budget
		// would just re-sample the same few moves.
		frac := float64(len(cands)) / float64(l.u.Len())
		if frac < 1 {
			if opts.MaxIters > 0 {
				if opts.MaxIters = int(math.Ceil(float64(opts.MaxIters) * frac)); opts.MaxIters < 1 {
					opts.MaxIters = 1
				}
			}
			if opts.MaxEvals > 0 {
				if opts.MaxEvals = int(math.Ceil(float64(opts.MaxEvals) * frac)); opts.MaxEvals < 1 {
					opts.MaxEvals = 1
				}
			}
		}
	}
	if opts.Recorder == nil {
		opts.Recorder = l.cfg.Recorder
	}
	return l.solver.Solve(ctx, p, opts)
}

// deltaPool is the warm re-solve's restricted candidate pool: the carried
// solution plus everything churn touched this tick, deduplicated.
func (l *Loop) deltaPool() []schema.SourceID {
	seen := make(map[schema.SourceID]bool, len(l.prev)+len(l.touched))
	pool := make([]schema.SourceID, 0, len(l.prev)+len(l.touched))
	for _, ids := range [2][]schema.SourceID{l.prev, l.touched} {
		for _, id := range ids {
			if !seen[id] {
				seen[id] = true
				pool = append(pool, id)
			}
		}
	}
	return pool
}

// Run performs the baseline solve (epoch 0, no churn) followed by
// Config.Epochs churn ticks, returning one DeltaReport per entry —
// reports[0] is the baseline, reports[i] epoch i. It stops early with the
// context's error when ctx is canceled between epochs; the solver itself
// also honors ctx within an epoch and returns best-so-far.
func (l *Loop) Run(ctx context.Context) ([]DeltaReport, error) {
	reports := make([]DeltaReport, 0, l.cfg.Epochs+1)
	base, err := l.baseline(ctx)
	if err != nil {
		return nil, err
	}
	reports = append(reports, base)
	for i := 0; i < l.cfg.Epochs; i++ {
		if err := ctx.Err(); err != nil {
			return reports, err
		}
		rep, err := l.Tick(ctx)
		if err != nil {
			return reports, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// baseline solves the unchurned universe to seed the warm-start chain.
func (l *Loop) baseline(ctx context.Context) (DeltaReport, error) {
	p, err := l.problem(l.u, l.m)
	if err != nil {
		return DeltaReport{}, err
	}
	sol, err := l.solve(ctx, p, nil, nil)
	if err != nil {
		return DeltaReport{}, err
	}
	l.prev = sol.IDs
	rep := DeltaReport{
		Epoch:     0,
		Sources:   l.u.Len(),
		QAfter:    sol.Quality,
		WarmEvals: sol.Evals,
		Status:    string(sol.Status),
	}
	if l.cfg.Cold {
		// The baseline has no warm start, so the cold reference is itself.
		rep.ColdQ, rep.ColdEvals = sol.Quality, sol.Evals
	}
	l.emit(rep)
	return rep, nil
}

// Tick advances the virtual clock one epoch and runs the full churn
// pipeline: schedule → reprobe → incremental universe update → constraint
// and warm-start remap → matcher rebind → re-solve.
func (l *Loop) Tick(ctx context.Context) (DeltaReport, error) {
	l.epoch++
	rep := DeltaReport{Epoch: l.epoch}
	l.touched = l.touched[:0]
	l.clock.Sleep(epochStep)
	// The tick is one span with churn / resolve / cold phase children, so a
	// profile attributes each epoch's cost to the pipeline step that paid it.
	// The deferred End also closes the tick on error returns.
	tick := l.cfg.Recorder.BeginSpan("watch.tick", telemetry.Int("epoch", l.epoch))
	defer tick.End()

	// 1. Seeded churn schedule: MTTF-weighted deaths, one draw per source
	// in ID order.
	churn := l.cfg.Recorder.BeginSpan("watch.churn")
	dead := l.scheduleDeaths()
	rep.Died = len(dead)

	// 2. Health-driven reprobe of the survivors under the fault plan.
	// Breaker trips join the dead; failures degrade in place; previously
	// degraded sources whose outage ended are restored from their cached
	// synopses.
	rsp := l.cfg.Recorder.BeginSpan("watch.reprobe", telemetry.Int("sources", l.u.Len()))
	dead = l.reprobe(dead, &rep)
	rsp.End(telemetry.Int("dropped", rep.Dropped),
		telemetry.Int("degraded", rep.Degraded),
		telemetry.Int("recovered", rep.Recovered))

	// 3. Incremental removal: one compaction, one kept list; constraints
	// and the warm start follow their sources to the new IDs. A dead
	// source's cached synopses go with it — arrival names never repeat, so
	// nothing could recover it.
	if len(dead) > 0 {
		for _, id := range dead {
			delete(l.pristine, l.u.Source(id).Name)
		}
		kept, err := l.u.Remove(dead)
		if err != nil {
			churn.End()
			return rep, fmt.Errorf("watch: epoch %d remove: %w", l.epoch, err)
		}
		rep.ConstraintsDropped = l.remapConstraints(kept)
		l.prev = remapIDs(l.prev, kept)
		l.touched = remapIDs(l.touched, kept)
	}

	// 4. Vocabulary drift on surviving cooperative sources.
	if err := l.scheduleDrift(&rep); err != nil {
		churn.End()
		return rep, err
	}

	// 5. Arrivals replace the dead, keeping N roughly stable.
	if err := l.scheduleArrivals(len(dead), &rep); err != nil {
		churn.End()
		return rep, err
	}
	l.u.Precompute()
	rep.Sources = l.u.Len()
	churn.End(telemetry.Int("died", rep.Died),
		telemetry.Int("arrived", rep.Arrived),
		telemetry.Int("sources", rep.Sources))

	// 6. Rebind the matcher: reuse every similarity already computed, score
	// only genuinely new names.
	resolve := l.cfg.Recorder.BeginSpan("watch.resolve", telemetry.Bool("delta_pool", l.cfg.DeltaPool))
	m, err := l.m.Rebind(l.u)
	if err != nil {
		resolve.End()
		return rep, fmt.Errorf("watch: epoch %d rebind: %w", l.epoch, err)
	}
	l.m = m

	// 7. Re-score the previous solution on the churned world, then
	// warm-start the re-solve from it.
	p, err := l.problem(l.u, l.m)
	if err != nil {
		resolve.End()
		return rep, err
	}
	if len(l.prev) > 0 {
		if rep.QBefore, err = opt.Score(p, l.prev); err != nil {
			resolve.End()
			return rep, err
		}
	}
	var cands []schema.SourceID
	if l.cfg.DeltaPool {
		cands = l.deltaPool()
	}
	sol, err := l.solve(ctx, p, l.prev, cands)
	if err != nil {
		resolve.End()
		return rep, err
	}
	rep.QAfter, rep.WarmEvals, rep.Status = sol.Quality, sol.Evals, string(sol.Status)
	l.prev = sol.IDs
	resolve.End(telemetry.Float("q_after", rep.QAfter), telemetry.Int("warm_evals", rep.WarmEvals))

	// 8. Optional from-scratch reference: rebuild the universe and matcher
	// cold, solve without a warm start, same seed.
	if l.cfg.Cold {
		csp := l.cfg.Recorder.BeginSpan("watch.cold")
		if err := l.coldReference(ctx, &rep); err != nil {
			csp.End()
			return rep, err
		}
		csp.End(telemetry.Float("cold_q", rep.ColdQ), telemetry.Int("cold_evals", rep.ColdEvals))
	}
	l.emit(rep)
	return rep, nil
}

// coldReference rebuilds the epoch's universe from scratch (fresh
// aggregates, cold matcher; the immutable signatures are shared, not copied)
// and solves without a warm start — the
// reference the incremental path must match on quality and beat on evals.
func (l *Loop) coldReference(ctx context.Context, rep *DeltaReport) error {
	nu := source.NewUniverse(l.u.SignatureConfig())
	for _, s := range l.u.Sources() {
		c := *s
		if _, err := nu.Add(&c); err != nil {
			return fmt.Errorf("watch: cold rebuild: %w", err)
		}
	}
	nu.Precompute()
	cm, err := match.New(nu, l.cfg.Match)
	if err != nil {
		return err
	}
	p, err := l.problem(nu, cm)
	if err != nil {
		return err
	}
	sol, err := l.solve(ctx, p, nil, nil)
	if err != nil {
		return err
	}
	rep.ColdQ, rep.ColdEvals = sol.Quality, sol.Evals
	return nil
}

// remapConstraints rewrites the carried constraints for the kept-ID list,
// dropping (and counting) any constraint that referenced a dead source —
// per-constraint, so one casualty does not discard the rest of the user's
// guidance.
func (l *Loop) remapConstraints(kept []schema.SourceID) int {
	dropped := 0
	next := constraint.Set{}
	for _, id := range l.cons.Sources {
		one := constraint.Set{Sources: []schema.SourceID{id}}
		if m, err := one.Remap(kept); err == nil {
			next.Sources = append(next.Sources, m.Sources[0])
		} else {
			dropped++
		}
	}
	for _, g := range l.cons.GAs {
		one := constraint.Set{GAs: []schema.GA{g}}
		if m, err := one.Remap(kept); err == nil {
			next.GAs = append(next.GAs, m.GAs[0])
		} else {
			dropped++
		}
	}
	l.cons = next
	return dropped
}

// remapIDs filters-and-renumbers a source-ID list through kept
// (kept[newID] == oldID, ascending as Universe.Remove returns it); members
// that died are dropped.
func remapIDs(ids []schema.SourceID, kept []schema.SourceID) []schema.SourceID {
	out := make([]schema.SourceID, 0, len(ids))
	for _, id := range ids {
		if nid, ok := slices.BinarySearch(kept, id); ok {
			out = append(out, schema.SourceID(nid))
		}
	}
	return out
}
