// Package exp contains the runners that regenerate every figure and table of
// the paper's evaluation (§7), plus the ablations DESIGN.md calls out.
// Experiments() is the harness's one list of them: cmd/mube-bench prints
// each entry (mube-bench -exp <name>), and the root package's
// BenchmarkExperiments/<name> times it. Every time column is measured by
// Timed, the harness's only clock.
//
// Experiment index by registry name (see DESIGN.md for the mapping to paper
// artifacts):
//
//	fig5          execution time vs universe size (choose 20 of 100..700)
//	fig67         execution time and overall quality vs sources to choose
//	fig8          solution cardinality vs weight on the Card QEF
//	table1        quality of GAs (true GAs / attributes / missed)
//	pcsa          probabilistic-counting accuracy vs exact counting
//	sensitivity   ±15% weight perturbation robustness
//	solvers       tabu vs SLS vs annealing vs PSO vs random
//	convergence   Q(S) trajectory per solver, from telemetry traces
//	querycost     mediator query cost vs solution size
//	ablation-*    similarity measure, linkage, tabu tenure, data-based
//	              similarity, pairwise star mediation, PCSA maps
//	faults        Q(S) vs probe failure rate
//	churn         warm vs cold re-solves under churn
//	partition     partitioned-solver group-worker invariance and speedup
package exp

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"mube/internal/bamm"
	"mube/internal/constraint"
	"mube/internal/fault"
	"mube/internal/match"
	"mube/internal/opt"
	"mube/internal/opt/tabu"
	"mube/internal/pcsa"
	"mube/internal/probe"
	"mube/internal/qef"
	"mube/internal/schema"
	"mube/internal/source"
	"mube/internal/synth"
	"mube/internal/telemetry"
)

// Scale sets the size of every experiment. Full() reproduces the paper's
// settings; Quick() is a minutes-scale smoke configuration for CI and Go
// benchmarks.
type Scale struct {
	// Name labels the scale in reports.
	Name string
	// DataFactor scales tuple-pool size and cardinalities (1 = paper).
	DataFactor float64
	// UniverseSizes are the x-axis of Fig 5.
	UniverseSizes []int
	// ChooseCounts are the x-axis of Figs 6–7 and Table 1.
	ChooseCounts []int
	// BaseUniverse is the universe size for Figs 6–8 and Table 1 (paper:
	// 200).
	BaseUniverse int
	// ChooseDefault is m for Figs 5 and 8 (paper: 20).
	ChooseDefault int
	// MaxIters / Patience bound each tabu run. Evaluations per iteration
	// scale with the universe, so time grows with N as in the paper.
	MaxIters int
	Patience int
	// Sig is the signature shape used by generated universes.
	Sig pcsa.Config
	// Seed drives universe generation and solver randomness.
	Seed int64
	// Repeats averages stochastic experiments over this many runs.
	Repeats int
	// Parallel is the evaluator worker-pool size passed to every solver run
	// (0 = GOMAXPROCS, 1 = sequential). Results are parallel-invariant;
	// only timings change.
	Parallel int
	// Faults, when non-nil and enabled, simulates acquisition of every
	// generated universe under the fault plan: each cooperative source runs
	// through the prober's retry/breaker state machine on a virtual clock,
	// failed sources degrade to uncooperative, breaker-tripped sources drop.
	// The plan is part of the universe-cache key, so degraded and clean
	// universes never alias.
	Faults *fault.Plan
	// Rec receives solver traces and evaluator/probe metrics for every run
	// launched through Options/Acquire (nil = telemetry off). Results are
	// bit-identical with or without it.
	Rec *telemetry.Recorder
}

// Full returns the paper-scale configuration (§7.1).
func Full() Scale {
	return Scale{
		Name:          "full",
		DataFactor:    1,
		UniverseSizes: []int{100, 200, 300, 400, 500, 600, 700},
		ChooseCounts:  []int{10, 20, 30, 40, 50},
		BaseUniverse:  200,
		ChooseDefault: 20,
		MaxIters:      120,
		Patience:      25,
		Sig:           pcsa.DefaultConfig,
		Seed:          1,
		Repeats:       3,
	}
}

// Quick returns a configuration that runs every experiment in seconds to a
// few minutes with the same qualitative shapes.
func Quick() Scale {
	return Scale{
		Name:          "quick",
		DataFactor:    0.01,
		UniverseSizes: []int{100, 200, 300},
		ChooseCounts:  []int{10, 20, 30},
		BaseUniverse:  200,
		ChooseDefault: 20,
		MaxIters:      40,
		Patience:      12,
		Sig:           pcsa.Config{NumMaps: 128},
		Seed:          1,
		Repeats:       2,
	}
}

// universeCache memoizes generated universes per (size, scale, fault plan) so
// sweeps and benchmarks do not regenerate data.
var universeCache sync.Map // key string → *acquired

// acquired pairs a (possibly degraded) universe with its acquisition health.
type acquired struct {
	res    *synth.Result
	health *probe.HealthReport // nil when no fault plan was in effect
}

// plan returns the effective fault plan (the zero plan when none is set).
func (sc Scale) plan() fault.Plan {
	if sc.Faults == nil {
		return fault.Plan{}
	}
	return *sc.Faults
}

// Universe returns (and caches) the synthetic universe of the given size at
// this scale, degraded under the scale's fault plan if one is set.
func (sc Scale) Universe(n int) (*synth.Result, error) {
	a, err := sc.Acquire(n)
	if err != nil {
		return nil, err
	}
	return a.res, nil
}

// Health returns the acquisition health report for the size-n universe (nil
// when the scale has no fault plan).
func (sc Scale) Health(n int) (*probe.HealthReport, error) {
	a, err := sc.Acquire(n)
	if err != nil {
		return nil, err
	}
	return a.health, nil
}

// Acquire generates (or returns cached) the size-n universe and, when a fault
// plan is set, simulates its acquisition through the prober: sources that
// cannot complete their synopsis scan degrade to uncooperative, sources whose
// circuit breaker trips are dropped, and every ID-indexed piece of ground
// truth is remapped to the surviving IDs. Acquisition is deterministic in
// (scale seed, plan), so repeated calls — at any evaluator worker count —
// return bit-identical universes and reports.
func (sc Scale) Acquire(n int) (*acquired, error) {
	plan := sc.plan()
	key := fmt.Sprintf("%s/%d/%d/%g/%d/%s", sc.Name, n, sc.Seed, sc.DataFactor, sc.Sig.NumMaps, plan.String())
	if v, ok := universeCache.Load(key); ok {
		return v.(*acquired), nil
	}
	cfg := synth.Scaled(sc.DataFactor)
	cfg.NumSources = n
	cfg.Seed = sc.Seed
	cfg.Sig = sc.Sig
	res, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	a := &acquired{res: res}
	if plan.Enabled() {
		prober := probe.New(probe.Policy{}, nil, fault.NewInjector(plan), sc.Seed).Instrument(sc.Rec)
		nu, health, kept, err := prober.ReprobeUniverse(res.Universe)
		if err != nil {
			return nil, err
		}
		a = &acquired{res: remapResult(res, nu, kept), health: health}
	}
	universeCache.Store(key, a)
	return a, nil
}

// remapResult rebuilds a synth.Result's ID-parallel ground truth for a
// reprobed universe: kept[newID] is the original ID of the new universe's
// source newID. Dropped sources vanish from every slice; degraded sources
// keep their ground truth (their schema and characteristics are unchanged —
// only their synopsis is gone).
func remapResult(res *synth.Result, nu *source.Universe, kept []schema.SourceID) *synth.Result {
	out := &synth.Result{Universe: nu, Config: res.Config}
	oldToNew := make(map[schema.SourceID]schema.SourceID, len(kept))
	for newID, oldID := range kept {
		oldToNew[oldID] = schema.SourceID(newID)
		out.BaseSchema = append(out.BaseSchema, res.BaseSchema[oldID])
		out.Specialty = append(out.Specialty, res.Specialty[oldID])
		out.AttrOrigins = append(out.AttrOrigins, res.AttrOrigins[oldID])
		if res.Tuples != nil {
			out.Tuples = append(out.Tuples, res.Tuples[oldID])
		}
	}
	for _, sid := range res.Conformant {
		if nid, ok := oldToNew[sid]; ok {
			out.Conformant = append(out.Conformant, nid)
		}
	}
	return out
}

// matcherCache memoizes matchers (similarity tables) per universe.
var matcherCache sync.Map // *synth.Result → *match.Matcher

// Matcher returns the default-configured matcher for res, cached.
func (sc Scale) Matcher(res *synth.Result) (*match.Matcher, error) {
	if v, ok := matcherCache.Load(res); ok {
		return v.(*match.Matcher), nil
	}
	m, err := match.New(res.Universe, match.Config{Theta: match.DefaultTheta})
	if err != nil {
		return nil, err
	}
	matcherCache.Store(res, m)
	return m, nil
}

// paperQEFs is the §7.1 objective's QEF list: the four main QEFs plus the
// MTTF wsum QEF.
func paperQEFs() []qef.QEF {
	return append(qef.MainQEFs(), qef.Characteristic{Char: "mttf", Agg: qef.WSum{}})
}

// PaperQuality assembles the §7.1 default objective: the four main QEFs plus
// the MTTF wsum QEF, with weights 0.25/0.25/0.2/0.15/0.15.
func PaperQuality() (*qef.Quality, error) {
	return qef.NewQuality(paperQEFs(), qef.PaperDefaults())
}

// Problem assembles the experiment problem over res: choose m sources under
// cons, scored by the §7.1 QEFs under weights w (nil = the paper's defaults)
// with the cached default matcher.
func (sc Scale) Problem(res *synth.Result, m int, cons constraint.Set, w qef.Weights) (*opt.Problem, error) {
	matcher, err := sc.Matcher(res)
	if err != nil {
		return nil, err
	}
	if w == nil {
		w = qef.PaperDefaults()
	}
	quality, err := qef.NewQuality(paperQEFs(), w)
	if err != nil {
		return nil, err
	}
	return &opt.Problem{
		Universe:    res.Universe,
		Matcher:     matcher,
		Quality:     quality,
		MaxSources:  m,
		Constraints: cons,
	}, nil
}

// Solver returns the experiment's tabu solver, with the per-iteration
// neighborhood scaled to the universe (N/10, at least 30) so that larger
// universes genuinely cost more to search, as in the paper's Fig 5.
func (sc Scale) Solver(universeSize int) opt.Solver {
	nb := universeSize / 10
	if nb < 30 {
		nb = 30
	}
	return tabu.Solver{Neighbors: nb}
}

// Options returns the solver budget for one run.
func (sc Scale) Options(seed int64) opt.Options {
	return opt.Options{
		Seed:     seed,
		MaxEvals: -1, // unlimited: bounded by iterations × neighborhood
		MaxIters: sc.MaxIters,
		Patience: sc.Patience,
		Parallel: sc.Parallel,
		Recorder: sc.Rec,
	}
}

// Workers returns the effective evaluator worker count for this scale.
func (sc Scale) Workers() int {
	if sc.Parallel > 0 {
		return sc.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// ConstraintConfig names one of the five constraint settings of Figs 5–7.
type ConstraintConfig struct {
	Label      string
	NumSources int
	NumGAs     int
}

// ConstraintConfigs are the paper's five settings: none; 1, 3, and 5 source
// constraints; and 5 source constraints plus 2 GA constraints.
func ConstraintConfigs() []ConstraintConfig {
	return []ConstraintConfig{
		{Label: "none", NumSources: 0, NumGAs: 0},
		{Label: "1C", NumSources: 1, NumGAs: 0},
		{Label: "3C", NumSources: 3, NumGAs: 0},
		{Label: "5C", NumSources: 5, NumGAs: 0},
		{Label: "5C+2G", NumSources: 5, NumGAs: 2},
	}
}

// BuildConstraints draws a constraint set per §7.2: source constraints are
// random *conformant* sources (unperturbed BAMM schemas); GA constraints
// have up to 5 attributes representing accurate matchings of one concept's
// attributes across different conformant sources. The total number of
// required sources (explicit plus GA-implied) is kept within maxSources so
// the resulting problem stays feasible even for small m.
func BuildConstraints(res *synth.Result, cc ConstraintConfig, maxSources int, r *rand.Rand) (constraint.Set, error) {
	var cons constraint.Set
	if cc.NumSources > len(res.Conformant) {
		return cons, fmt.Errorf("exp: %d source constraints exceed %d conformant sources",
			cc.NumSources, len(res.Conformant))
	}
	perm := r.Perm(len(res.Conformant))
	for i := 0; i < cc.NumSources; i++ {
		cons.Sources = append(cons.Sources, res.Conformant[perm[i]])
	}
	required := make(map[schema.SourceID]bool, maxSources)
	for _, id := range cons.Sources {
		required[id] = true
	}

	// GA constraints: pick distinct concepts; for each, gather attribute
	// refs of that concept from up to 5 distinct conformant sources,
	// preferring already-required sources so small m stays feasible.
	usedConcepts := make(map[int]bool)
	attempts := 0
	for len(cons.GAs) < cc.NumGAs && attempts < 4*bamm.NumConcepts {
		attempts++
		ci := r.Intn(bamm.NumConcepts)
		if usedConcepts[ci] {
			continue
		}
		usedConcepts[ci] = true

		conceptRef := func(sid schema.SourceID) (schema.AttrRef, bool) {
			s := res.Universe.Source(sid)
			for a := 0; a < s.Schema.Len(); a++ {
				if got, ok := bamm.ConceptOf(s.Schema.Name(a)); ok && got == ci {
					return schema.AttrRef{Source: sid, Attr: a}, true
				}
			}
			return schema.AttrRef{}, false
		}
		var refs []schema.AttrRef
		// First pass: sources that are already required cost no budget.
		for _, sid := range res.Conformant {
			if len(refs) == 5 {
				break
			}
			if !required[sid] {
				continue
			}
			if ref, ok := conceptRef(sid); ok {
				refs = append(refs, ref)
			}
		}
		// Second pass: new sources, as budget allows — always leaving at
		// least two free slots so the search space never degenerates to a
		// single feasible subset.
		for _, sid := range res.Conformant {
			if len(refs) == 5 || len(required) >= maxSources-2 {
				break
			}
			if required[sid] {
				continue
			}
			if ref, ok := conceptRef(sid); ok {
				refs = append(refs, ref)
				required[sid] = true
			}
		}
		if len(refs) < 2 {
			continue // concept too rare among affordable sources; try another
		}
		cons.GAs = append(cons.GAs, schema.NewGA(refs...))
	}
	if len(cons.GAs) < cc.NumGAs {
		return constraint.Set{}, fmt.Errorf("exp: could only build %d of %d GA constraints within m=%d",
			len(cons.GAs), cc.NumGAs, maxSources)
	}
	if err := cons.Validate(res.Universe); err != nil {
		return constraint.Set{}, err
	}
	return cons, nil
}
