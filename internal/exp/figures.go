package exp

import (
	"context"
	"math"
	"math/rand"

	"mube/internal/constraint"
	"mube/internal/opt"
	"mube/internal/qef"
	"mube/internal/schema"
)

// SweepRow is one point of Figures 5–7: the mean execution time, overall
// quality and evaluation count of choosing Choose sources from a universe of
// Size sources under one constraint config.
type SweepRow struct {
	Size    int
	Choose  int
	Config  string
	Millis  float64
	Quality float64
	Evals   int
}

// Fig5 reproduces Figure 5: execution time vs universe size (100..700),
// choosing 20 sources, across the five constraint configurations.
func Fig5(sc Scale) ([]SweepRow, error) {
	return sc.sweep(sc.UniverseSizes, func(n int) (int, int) { return n, sc.ChooseDefault })
}

// Fig67 reproduces Figures 6 (time) and 7 (overall quality) in one sweep:
// choose 10..50 sources from a universe of 200 under the five constraint
// configurations.
func Fig67(sc Scale) ([]SweepRow, error) {
	return sc.sweep(sc.ChooseCounts, func(m int) (int, int) { return sc.BaseUniverse, m })
}

// sweep is the constraint sweep of Figs 5–7: for every x of xs it chooses m
// of n sources, (n, m) = at(x), under each constraint config, drawing the
// constraints from seed Seed+x, and solves each problem Repeats times.
func (sc Scale) sweep(xs []int, at func(x int) (n, m int)) ([]SweepRow, error) {
	var rows []SweepRow
	for _, x := range xs {
		n, m := at(x)
		res, err := sc.Universe(n)
		if err != nil {
			return nil, err
		}
		for _, cc := range ConstraintConfigs() {
			cons, err := BuildConstraints(res, cc, m, rand.New(rand.NewSource(sc.Seed+int64(x))))
			if err != nil {
				return nil, err
			}
			p, err := sc.Problem(res, m, cons, nil)
			if err != nil {
				return nil, err
			}
			r, err := sc.repeatSolve(sc.Solver(n), p, sc.Options(0))
			if err != nil {
				return nil, err
			}
			rows = append(rows, SweepRow{
				Size:    n,
				Choose:  m,
				Config:  cc.Label,
				Millis:  r.millis,
				Quality: r.quality,
				Evals:   r.evals,
			})
		}
	}
	return rows, nil
}

// repeated is the outcome of Repeats timed solves of one problem.
type repeated struct {
	quality, best, worst float64 // mean, largest and smallest Q(S)
	millis               float64 // mean wall time
	evals                int     // mean evaluation count
}

// repeatSolve solves p Repeats times with s under opts, seeding run rep
// with Seed+rep, and times each solve.
func (sc Scale) repeatSolve(s opt.Solver, p *opt.Problem, opts opt.Options) (repeated, error) {
	r := repeated{best: math.Inf(-1), worst: math.Inf(1)}
	for rep := 0; rep < sc.Repeats; rep++ {
		opts.Seed = sc.Seed + int64(rep)
		sol, ms, err := Timed(func() (*opt.Solution, error) { return s.Solve(context.Background(), p, opts) })
		if err != nil {
			return r, err
		}
		r.millis += ms
		r.quality += sol.Quality
		r.best = math.Max(r.best, sol.Quality)
		r.worst = math.Min(r.worst, sol.Quality)
		r.evals += sol.Evals
	}
	r.quality /= float64(sc.Repeats)
	r.millis /= float64(sc.Repeats)
	r.evals /= sc.Repeats
	return r, nil
}

// Fig8Row is one point of Figure 8: the cardinality of the chosen solution
// as the weight on the Card QEF grows.
type Fig8Row struct {
	CardWeight float64
	// SolutionCard is Σ|s| over the chosen sources (tuples).
	SolutionCard int64
	// CardFraction is Card(S) ∈ [0,1].
	CardFraction float64
	Quality      float64
}

// Fig8 reproduces Figure 8: choose 20 sources from 200 while sweeping the
// Card QEF weight from 0.1 to 1.0, the remaining weights sharing the rest
// equally. Increasing the weight biases µBE toward high-cardinality
// solutions; the curve flattens once the top-cardinality sources that
// satisfy the matching threshold are already chosen.
func Fig8(sc Scale) ([]Fig8Row, error) {
	res, err := sc.Universe(sc.BaseUniverse)
	if err != nil {
		return nil, err
	}
	qefs := paperQEFs()
	var rows []Fig8Row
	// Each repeat sweeps the weight upward, warm-starting every step from
	// the previous step's solution — the iterative-session dynamic of a
	// user nudging one weight and re-solving.
	warm := make(map[int][]schema.SourceID, sc.Repeats)
	for w := 0.1; w <= 1.0001; w += 0.1 {
		weights := make(qef.Weights, len(qefs))
		rest := (1 - w) / float64(len(qefs)-1)
		for _, f := range qefs {
			if f.Name() == qef.NameCardinality {
				weights[f.Name()] = w
			} else {
				weights[f.Name()] = rest
			}
		}
		p, err := sc.Problem(res, sc.ChooseDefault, constraint.Set{}, weights)
		if err != nil {
			return nil, err
		}
		var cardSum int64
		var fracSum, qSum float64
		for rep := 0; rep < sc.Repeats; rep++ {
			opts := sc.Options(sc.Seed + int64(rep))
			opts.Initial = warm[rep]
			sol, err := sc.Solver(sc.BaseUniverse).Solve(context.Background(), p, opts)
			if err != nil {
				return nil, err
			}
			warm[rep] = sol.IDs
			cardSum += res.Universe.SumCardinality(sol.IDs)
			fracSum += sol.Breakdown[qef.NameCardinality]
			qSum += sol.Quality
		}
		rows = append(rows, Fig8Row{
			CardWeight:   w,
			SolutionCard: cardSum / int64(sc.Repeats),
			CardFraction: fracSum / float64(sc.Repeats),
			Quality:      qSum / float64(sc.Repeats),
		})
	}
	return rows, nil
}
