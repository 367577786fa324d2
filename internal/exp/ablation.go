package exp

import (
	"math"
	"math/rand"

	"mube/internal/constraint"
	"mube/internal/eval"
	"mube/internal/match"
	"mube/internal/opt"
	"mube/internal/opt/solvers"
	"mube/internal/opt/tabu"
	"mube/internal/pcsa"
	"mube/internal/schema"
	"mube/internal/source"
	"mube/internal/strutil"
)

// allSolvers returns the comparison solvers with tabu's neighborhood scaled
// to the experiment's universe.
func allSolvers(sc Scale) []opt.Solver {
	all := solvers.All()
	all[0] = sc.Solver(sc.BaseUniverse)
	return all
}

// MatchRow is one line of a matching ablation (similarity measure, linkage,
// mediation topology, data weight): a fixed source selection matched under
// one setting and scored against the ground truth.
type MatchRow struct {
	// Setting is the ablated setting: the measure, linkage, method or data
	// weight.
	Setting        string
	Quality        float64
	GAs            int
	TrueGAs        int
	FalseGAs       int
	AttrsInTrueGAs int
	// Renamed counts attributes in true GAs whose *names* are off-domain —
	// matches only data-based similarity can make (hybrid ablation only).
	Renamed int
	// Millis is the wall time of the Match(S) call.
	Millis float64
}

// matchRows builds a matching ablation's rows over one fixed selection.
type matchRows struct {
	u   *source.Universe
	sel []schema.SourceID
	// conceptOf is the ground truth per attribute reference; nil scores by
	// attribute name against the BAMM vocabulary.
	conceptOf eval.RefConceptFn
	rows      []MatchRow
}

// add times one Match(S) call of the selection under setting, scores its
// schema, and appends the row; it returns the match result.
func (b *matchRows) add(setting string, run func() (match.Result, error)) (match.Result, error) {
	mr, ms, err := Timed(run)
	if err != nil {
		return mr, err
	}
	var stats eval.GAStats
	if b.conceptOf == nil {
		stats = eval.Evaluate(b.u, b.sel, mr.Schema, nil)
	} else {
		stats = eval.EvaluateRefs(b.u, b.sel, mr.Schema, b.conceptOf)
	}
	b.rows = append(b.rows, MatchRow{
		Setting:        setting,
		Quality:        mr.Quality,
		GAs:            mr.Schema.Len(),
		TrueGAs:        stats.TrueGAs,
		FalseGAs:       stats.FalseGAs,
		AttrsInTrueGAs: stats.AttrsInTrueGAs,
		Millis:         ms,
	})
	return mr, nil
}

// AblationSimilarity evaluates every built-in similarity measure on a fixed
// selection from the base universe. The paper fixes 3-gram Jaccard; this
// ablation shows the matching layer is measure-agnostic (§3: "Match(S) can
// use any attribute similarity measure").
func AblationSimilarity(sc Scale) ([]MatchRow, error) {
	res, err := sc.Universe(sc.BaseUniverse)
	if err != nil {
		return nil, err
	}
	b := matchRows{u: res.Universe, sel: fixedSelection(res.Universe.Len(), 30)}
	for _, measure := range strutil.Measures() {
		m, err := match.New(res.Universe, match.Config{Similarity: measure, Theta: match.DefaultTheta})
		if err != nil {
			return nil, err
		}
		if _, err := b.add(measure.Name(), func() (match.Result, error) { return m.Match(b.sel, constraint.Set{}) }); err != nil {
			return nil, err
		}
	}
	return b.rows, nil
}

// AblationLinkage compares max linkage (the paper's choice, which enables
// GA-constraint bridging) against average linkage on a fixed selection.
func AblationLinkage(sc Scale) ([]MatchRow, error) {
	res, err := sc.Universe(sc.BaseUniverse)
	if err != nil {
		return nil, err
	}
	b := matchRows{u: res.Universe, sel: fixedSelection(res.Universe.Len(), 30)}
	for _, linkage := range []match.Linkage{match.MaxLinkage, match.AvgLinkage} {
		m, err := match.New(res.Universe, match.Config{Theta: match.DefaultTheta, Linkage: linkage})
		if err != nil {
			return nil, err
		}
		if _, err := b.add(linkage.String(), func() (match.Result, error) { return m.Match(b.sel, constraint.Set{}) }); err != nil {
			return nil, err
		}
	}
	return b.rows, nil
}

// TenureRow is one line of the tabu-tenure ablation.
type TenureRow struct {
	Tenure  int
	Quality float64
	Millis  float64
}

// AblationTenure sweeps tabu search's tenure parameter on the standard
// problem, showing the robustness plateau around the default.
func AblationTenure(sc Scale) ([]TenureRow, error) {
	res, err := sc.Universe(sc.BaseUniverse)
	if err != nil {
		return nil, err
	}
	p, err := sc.Problem(res, sc.ChooseDefault, constraint.Set{}, nil)
	if err != nil {
		return nil, err
	}
	var rows []TenureRow
	for _, tenure := range []int{2, 4, 8, 16, 32} {
		s := sc.Solver(sc.BaseUniverse).(tabu.Solver)
		s.Tenure = tenure
		r, err := sc.repeatSolve(s, p, sc.Options(0))
		if err != nil {
			return nil, err
		}
		rows = append(rows, TenureRow{
			Tenure:  tenure,
			Quality: r.quality,
			Millis:  r.millis,
		})
	}
	return rows, nil
}

// AblationPairwise compares µBE's constrained clustering against the
// pairwise star baseline (§8: traditional matchers match two schemas at a
// time) on a fixed selection. The star topology structurally misses every
// concept its hub does not expose.
func AblationPairwise(sc Scale) ([]MatchRow, error) {
	res, err := sc.Universe(sc.BaseUniverse)
	if err != nil {
		return nil, err
	}
	matcher, err := sc.Matcher(res)
	if err != nil {
		return nil, err
	}
	b := matchRows{u: res.Universe, sel: fixedSelection(res.Universe.Len(), 30)}
	theta := matcher.Config().Theta
	beta := matcher.Config().Beta
	for _, m := range []struct {
		method string
		run    func() (match.Result, error)
	}{
		{"clustering", func() (match.Result, error) { return matcher.Match(b.sel, constraint.Set{}) }},
		{"star-first", func() (match.Result, error) { return matcher.StarMediate(b.sel[0], b.sel, theta, beta), nil }},
		{"star-best", func() (match.Result, error) { return matcher.BestStarMediate(b.sel, theta, beta), nil }},
	} {
		if _, err := b.add(m.method, m.run); err != nil {
			return nil, err
		}
	}
	return b.rows, nil
}

// PCSAMapsRow is one line of the PCSA bitmap-count ablation.
type PCSAMapsRow struct {
	NumMaps   int
	SizeBytes int
	MeanErr   float64
	WorstErr  float64
}

// AblationPCSAMaps sweeps the number of PCSA bitmaps, trading signature size
// against union-estimation error (theoretical SE ≈ 0.78/√m).
func AblationPCSAMaps(sc Scale) ([]PCSAMapsRow, error) {
	var rows []PCSAMapsRow
	for _, m := range []int{16, 64, 256, 1024} {
		cfg := pcsa.Config{NumMaps: m}
		r := rand.New(rand.NewSource(sc.Seed))
		var mean, worst float64
		const trials = 10
		for trial := 0; trial < trials; trial++ {
			sig, err := pcsa.New(cfg)
			if err != nil {
				return nil, err
			}
			exact := pcsa.NewExact()
			n := 5000 + r.Intn(50000)
			for i := 0; i < n; i++ {
				x := r.Uint64()
				sig.AddUint64(x)
				exact.AddUint64(x)
			}
			relErr := math.Abs(sig.Estimate()-float64(exact.Count())) / float64(exact.Count())
			mean += relErr
			if relErr > worst {
				worst = relErr
			}
		}
		rows = append(rows, PCSAMapsRow{
			NumMaps:   m,
			SizeBytes: 8 * m,
			MeanErr:   mean / trials,
			WorstErr:  worst,
		})
	}
	return rows, nil
}

// fixedSelection returns the first min(k, n) source ids — a deterministic
// selection for matching-only ablations.
func fixedSelection(n, k int) []schema.SourceID {
	if k > n {
		k = n
	}
	ids := make([]schema.SourceID, k)
	for i := range ids {
		ids[i] = schema.SourceID(i)
	}
	return ids
}
