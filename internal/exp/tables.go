package exp

import (
	"context"
	"math"
	"math/rand"

	"mube/internal/bamm"
	"mube/internal/constraint"
	"mube/internal/eval"
	"mube/internal/opt"
	"mube/internal/pcsa"
	"mube/internal/qef"
	"mube/internal/schema"
	"mube/internal/source"
)

// Table1Row is one row of Table 1 (quality of GAs): choose m sources from
// the base universe with no constraints and score the generated mediated
// schema against the 14-concept ground truth.
type Table1Row struct {
	Choose         int
	TrueGAs        int
	AttrsInTrueGAs int
	Missed         int
	FalseGAs       int
}

// Table1 reproduces Table 1 (§7.3).
func Table1(sc Scale) ([]Table1Row, error) {
	res, err := sc.Universe(sc.BaseUniverse)
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, m := range sc.ChooseCounts {
		p, err := sc.Problem(res, m, constraint.Set{}, nil)
		if err != nil {
			return nil, err
		}
		sol, err := sc.Solver(sc.BaseUniverse).Solve(context.Background(), p, sc.Options(sc.Seed))
		if err != nil {
			return nil, err
		}
		stats := eval.Evaluate(res.Universe, sol.IDs, sol.Schema, nil)
		rows = append(rows, Table1Row{
			Choose:         m,
			TrueGAs:        stats.TrueGAs,
			AttrsInTrueGAs: stats.AttrsInTrueGAs,
			Missed:         stats.Missed,
			FalseGAs:       stats.FalseGAs,
		})
	}
	return rows, nil
}

// PCSARow is one point of the PCSA accuracy experiment: the estimated vs
// exact distinct count of a union of synthetic sources.
type PCSARow struct {
	Sources  int
	Exact    int
	Estimate float64
	// RelErr is |estimate − exact| / exact.
	RelErr float64
}

// PCSAResult aggregates the accuracy sweep.
type PCSAResult struct {
	Rows     []PCSARow
	MeanErr  float64
	WorstErr float64
}

// PCSA reproduces the §7.3 claim that probabilistic counting stays within
// ~7% of exact counting: it draws overlapping synthetic sources, unions
// their signatures, and compares against exact distinct counts.
func PCSA(sc Scale) (*PCSAResult, error) {
	r := rand.New(rand.NewSource(sc.Seed))
	poolSize := int64(float64(4_000_000) * sc.DataFactor)
	if poolSize < 10_000 {
		poolSize = 10_000
	}
	out := &PCSAResult{}
	for _, nSources := range []int{1, 2, 5, 10, 20, 50} {
		sig, err := pcsa.New(sc.Sig)
		if err != nil {
			return nil, err
		}
		exact := pcsa.NewExact()
		for s := 0; s < nSources; s++ {
			card := 1000 + r.Intn(20000)
			for t := 0; t < card; t++ {
				x := uint64(r.Int63n(poolSize))
				sig.AddUint64(x)
				exact.AddUint64(x)
			}
		}
		est := sig.Estimate()
		relErr := math.Abs(est-float64(exact.Count())) / float64(exact.Count())
		out.Rows = append(out.Rows, PCSARow{
			Sources:  nSources,
			Exact:    exact.Count(),
			Estimate: est,
			RelErr:   relErr,
		})
		out.MeanErr += relErr
		if relErr > out.WorstErr {
			out.WorstErr = relErr
		}
	}
	out.MeanErr /= float64(len(out.Rows))
	return out, nil
}

// SensitivityResult reports the §7.4 robustness experiment: perturb every
// QEF weight by up to ±15% (renormalized), re-solve, and measure how much
// the solution moves.
type SensitivityResult struct {
	Trials int
	// MaxGAChanges is the largest number of GAs that differ from the
	// baseline solution across trials (paper: at most 1).
	MaxGAChanges int
	// MeanGAChanges averages GA set differences across trials.
	MeanGAChanges float64
	// MaxSourceChanges is the largest symmetric difference of the chosen
	// source sets (paper: "the selected sources rarely changed").
	MaxSourceChanges int
	// MeanSourceChanges averages source set differences.
	MeanSourceChanges float64
	// MaxConceptChanges / MeanConceptChanges compare the schemas at the
	// level a user perceives them: the set of ground-truth concepts the
	// GAs identify. Swapping one near-duplicate source reshuffles GA
	// membership (counted above) without changing what the mediated schema
	// *means* (counted here).
	MaxConceptChanges  int
	MeanConceptChanges float64
}

// Sensitivity reproduces the weight-perturbation robustness experiment.
func Sensitivity(sc Scale) (*SensitivityResult, error) {
	res, err := sc.Universe(sc.BaseUniverse)
	if err != nil {
		return nil, err
	}
	matcher, err := sc.Matcher(res)
	if err != nil {
		return nil, err
	}
	qefs := paperQEFs()
	baseWeights := qef.PaperDefaults()
	baseP, err := sc.Problem(res, sc.ChooseDefault, constraint.Set{}, baseWeights)
	if err != nil {
		return nil, err
	}
	tabuSol, err := sc.Solver(sc.BaseUniverse).Solve(context.Background(), baseP, sc.Options(sc.Seed))
	if err != nil {
		return nil, err
	}
	// Polish the baseline to a local optimum under the base weights so that
	// perturbed-weight polishes measure the weights' effect, not leftover
	// slack in the tabu solution.
	baseIDs, err := polish(baseP, tabuSol.IDs, sc.Seed)
	if err != nil {
		return nil, err
	}
	baseMatch, err := matcher.Match(baseIDs, constraint.Set{})
	if err != nil {
		return nil, err
	}
	baseGAs := gaKeySet(baseMatch.Schema)
	baseSrc := idSet(baseIDs)
	baseConcepts := conceptSet(res.Universe, baseMatch.Schema)

	r := rand.New(rand.NewSource(sc.Seed + 77))
	out := &SensitivityResult{Trials: 5 * sc.Repeats}
	for trial := 0; trial < out.Trials; trial++ {
		// Draw in QEF order: a map-order draw would hand each trial's
		// perturbations to different QEFs from run to run.
		w := make(qef.Weights, len(baseWeights))
		for _, f := range qefs {
			w[f.Name()] = baseWeights[f.Name()] * (1 + (r.Float64()*2-1)*0.15)
		}
		w = w.Normalized()
		// Re-optimize *deterministically* from the baseline solution under
		// the perturbed weights: a steepest-ascent polish moves only if the
		// perturbation actually created improving moves. This isolates the
		// weights' effect on the solution from tabu's stochastic path —
		// the question the paper asks is whether slightly different weights
		// change what µBE recommends.
		p, err := sc.Problem(res, sc.ChooseDefault, constraint.Set{}, w)
		if err != nil {
			return nil, err
		}
		ids, err := polish(p, baseIDs, sc.Seed)
		if err != nil {
			return nil, err
		}
		med, err := matcher.Match(ids, constraint.Set{})
		if err != nil {
			return nil, err
		}
		gaDiff := symDiff(baseGAs, gaKeySet(med.Schema))
		srcDiff := symDiff(baseSrc, idSet(ids))
		conceptDiff := symDiff(baseConcepts, conceptSet(res.Universe, med.Schema))
		out.MeanGAChanges += float64(gaDiff)
		out.MeanSourceChanges += float64(srcDiff)
		out.MeanConceptChanges += float64(conceptDiff)
		if gaDiff > out.MaxGAChanges {
			out.MaxGAChanges = gaDiff
		}
		if srcDiff > out.MaxSourceChanges {
			out.MaxSourceChanges = srcDiff
		}
		if conceptDiff > out.MaxConceptChanges {
			out.MaxConceptChanges = conceptDiff
		}
	}
	out.MeanGAChanges /= float64(out.Trials)
	out.MeanSourceChanges /= float64(out.Trials)
	out.MeanConceptChanges /= float64(out.Trials)
	return out, nil
}

// conceptSet returns the ground-truth concepts identified by pure GAs of m.
func conceptSet(u *source.Universe, m schema.Mediated) map[int]struct{} {
	set := make(map[int]struct{})
	for _, g := range m.GAs {
		concept := -1
		pure := true
		for _, r := range g.Refs() {
			ci, ok := bamm.ConceptOf(u.AttrName(r))
			if !ok {
				pure = false
				break
			}
			if concept == -1 {
				concept = ci
			} else if ci != concept {
				pure = false
				break
			}
		}
		if pure && concept >= 0 {
			set[concept] = struct{}{}
		}
	}
	return set
}

// polish runs deterministic steepest-ascent hill climbing from start until
// no sampled move improves the objective.
func polish(p *opt.Problem, start []schema.SourceID, seed int64) ([]schema.SourceID, error) {
	search, err := opt.NewSearch(context.Background(), p, opt.Options{Seed: seed, MaxEvals: -1, MaxIters: 1 << 20, Patience: 1 << 20})
	if err != nil {
		return nil, err
	}
	defer search.Release()
	cur := search.NewSubset(append([]schema.SourceID(nil), start...))
	curQ := search.Eval.Eval(cur.IDs())
	for step := 0; step < 200; step++ {
		best := opt.NoMove
		bestQ := curQ
		moves := search.Moves(cur, 150)
		for i, q := range search.EvalMoves(cur, moves) {
			if q > bestQ {
				bestQ = q
				best = moves[i]
			}
		}
		if best == opt.NoMove {
			break
		}
		cur.Apply(best)
		curQ = bestQ
	}
	return cur.IDs(), nil
}

// gaKeySet canonicalizes a mediated schema into a set of GA keys.
func gaKeySet(m schema.Mediated) map[string]struct{} {
	set := make(map[string]struct{}, m.Len())
	for _, g := range m.GAs {
		set[g.Key()] = struct{}{}
	}
	return set
}

// idSet converts an id slice to a set.
func idSet(ids []schema.SourceID) map[schema.SourceID]struct{} {
	set := make(map[schema.SourceID]struct{}, len(ids))
	for _, id := range ids {
		set[id] = struct{}{}
	}
	return set
}

// symDiff counts the keys in exactly one of a and b.
func symDiff[K comparable](a, b map[K]struct{}) int {
	n := 0
	for k := range a {
		if _, ok := b[k]; !ok {
			n++
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			n++
		}
	}
	return n
}

// SolverRow is one line of the solver-comparison experiment (§6: "we found
// that tabu search gives the best results").
type SolverRow struct {
	Solver  string
	Quality float64 // mean over repeats
	Best    float64
	Worst   float64
	Millis  float64 // mean wall time
}

// Solvers compares all heuristic solvers at equal evaluation budgets on the
// standard problem.
func Solvers(sc Scale) ([]SolverRow, error) {
	res, err := sc.Universe(sc.BaseUniverse)
	if err != nil {
		return nil, err
	}
	p, err := sc.Problem(res, sc.ChooseDefault, constraint.Set{}, nil)
	if err != nil {
		return nil, err
	}
	// Equal budgets: cap evaluations at what tabu uses at this scale.
	probe, err := sc.Solver(sc.BaseUniverse).Solve(context.Background(), p, sc.Options(sc.Seed))
	if err != nil {
		return nil, err
	}
	budget := opt.Options{
		MaxEvals: probe.Evals,
		MaxIters: 1 << 20, // bounded by evaluations
		Patience: 1 << 20,
	}
	var rows []SolverRow
	for _, s := range allSolvers(sc) {
		r, err := sc.repeatSolve(s, p, budget)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SolverRow{
			Solver:  s.Name(),
			Quality: r.quality,
			Best:    r.best,
			Worst:   r.worst,
			Millis:  r.millis,
		})
	}
	return rows, nil
}
