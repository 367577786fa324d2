package exp

import (
	"context"
	"fmt"
	"io"

	"mube/internal/constraint"
	"mube/internal/match"
	"mube/internal/opt"
	"mube/internal/opt/solvers"
	"mube/internal/pcsa"
	"mube/internal/source"
	"mube/internal/synth"
	"mube/internal/telemetry"
)

// ScalePreset sizes one point of the universe-scale benchmark: how large a
// streamed synthetic universe to build and how much solver budget to spend on
// it. Unlike Scale (which reproduces the paper's figures on paper-sized
// universes), presets exercise the Internet-scale path: the streaming
// generator, the θ shard index, and the partitioned solver over
// shard-disjoint domains.
type ScalePreset struct {
	// Name labels the preset ("50", "10k", "100k", "1m").
	Name string
	// NumSources is the universe size.
	NumSources int
	// Domains > 1 generates that many vocabulary-disjoint domains so the
	// matcher's shard index decomposes the universe; 0 keeps the BAMM
	// single-domain generator.
	Domains int
	// Concepts sets the per-domain vocabulary size (synth.Config
	// DomainConcepts); 0 keeps the generator default. Larger vocabularies
	// grow the distinct-name table the shard index is built over.
	Concepts int
	// Choose is MaxSources for the solve.
	Choose int
	// MaxIters / Patience / MaxEvals bound each (sub-)solve.
	MaxIters int
	Patience int
	MaxEvals int
	// Solver names the algorithm in the solvers registry.
	Solver string
	// DataFactor scales tuple cardinalities, exactly as Scale.DataFactor.
	DataFactor float64
	// SigMaps is the PCSA signature width in bitmaps (0 = 64). The 1m preset
	// narrows it so the signatures stay a fraction of RAM at 8 B/map per
	// source.
	SigMaps int
	// Seed drives generation and the solver.
	Seed int64
}

// ScalePresets returns the benchmark ladder: the paper's neighborhood (50),
// beyond any flat search (10k), the Internet-scale target (100k), and the
// 10⁶-source rung (1m).
func ScalePresets() []ScalePreset {
	return []ScalePreset{
		{
			Name:       "50",
			NumSources: 50,
			Domains:    0, // BAMM: one shared domain, single group
			Choose:     10,
			MaxIters:   40,
			Patience:   12,
			MaxEvals:   -1,
			Solver:     "tabu",
			DataFactor: 0.01,
			Seed:       1,
		},
		{
			Name:       "10k",
			NumSources: 10_000,
			Domains:    8,
			Choose:     40,
			MaxIters:   30,
			Patience:   8,
			MaxEvals:   12_000,
			Solver:     "partition+tabu",
			DataFactor: 0.001,
			Seed:       1,
		},
		{
			Name:       "100k",
			NumSources: 100_000,
			Domains:    8,
			Choose:     80,
			MaxIters:   30,
			Patience:   8,
			MaxEvals:   24_000,
			Solver:     "partition+tabu",
			DataFactor: 0.001,
			Seed:       1,
		},
		{
			// The 10⁶-source rung. A wider domain fan (32 × 64 concepts)
			// keeps per-group sub-solves tractable and gives the shard index
			// a 2048-name table (~2.1M pairs). SigMaps 16 holds the
			// signatures at 122 MB.
			Name:       "1m",
			NumSources: 1_000_000,
			Domains:    32,
			Concepts:   64,
			Choose:     128,
			MaxIters:   12,
			Patience:   4,
			MaxEvals:   24_000,
			Solver:     "partition+tabu",
			DataFactor: 0.0005,
			SigMaps:    16,
			Seed:       1,
		},
	}
}

// ScalePresetByName resolves one preset.
func ScalePresetByName(name string) (ScalePreset, error) {
	for _, p := range ScalePresets() {
		if p.Name == name {
			return p, nil
		}
	}
	return ScalePreset{}, fmt.Errorf("exp: unknown universe preset %q (want 50, 10k, 100k, or 1m)", name)
}

// Reduced shrinks a preset's solver budget for CI smoke runs: same universe,
// same decomposition, a fraction of the search.
func (p ScalePreset) Reduced() ScalePreset {
	p.MaxIters = 6
	p.Patience = 2
	if p.MaxEvals < 0 || p.MaxEvals > 2000 {
		p.MaxEvals = 2000
	}
	return p
}

// ScaleBenchRow reports one preset run.
type ScaleBenchRow struct {
	Preset  string
	Sources int
	// Groups is the number of independent source groups the shard index
	// found (1 = no decomposition, flat solve).
	Groups int
	Solver string
	// GenMS covers streaming generation plus universe precompute; MatchMS
	// is match.New (name interning + the distinct-name similarity table);
	// ShardMS is the θ-component shard-index build (θ scan of the table +
	// union-find + per-source lists); SolveMS is the solve proper.
	GenMS   float64
	MatchMS float64
	ShardMS float64
	SolveMS float64
	Evals   int
	// EvalsPerSec is Evals over the solve wall time.
	EvalsPerSec float64
	// SigMB is the bitmap footprint of all source signatures.
	SigMB   float64
	Quality float64
	Status  string
}

// ladder is one preset's problem as ScaleBench and Partition both solve it:
// the streamed universe, its matcher and shard index, and the solver, with
// what each build step cost.
type ladder struct {
	preset  ScalePreset
	prob    *opt.Problem
	solver  opt.Solver
	groups  int
	genMS   float64
	matchMS float64
	shardMS float64
}

// newLadder builds p's universe through the streaming generator, its matcher
// and shard index, and resolves p's solver, timing each build step.
func newLadder(p ScalePreset) (*ladder, error) {
	cfg := synth.Scaled(p.DataFactor)
	cfg.NumSources = p.NumSources
	cfg.Domains = p.Domains
	cfg.DomainConcepts = p.Concepts
	cfg.Seed = p.Seed
	sigMaps := p.SigMaps
	if sigMaps == 0 {
		sigMaps = 64
	}
	cfg.Sig = pcsa.Config{NumMaps: sigMaps}
	u, genMS, err := Timed(func() (*source.Universe, error) { return synth.GenerateUniverse(cfg) })
	if err != nil {
		return nil, err
	}
	matcher, matchMS, err := Timed(func() (*match.Matcher, error) {
		return match.New(u, match.Config{Theta: match.DefaultTheta})
	})
	if err != nil {
		return nil, err
	}
	// Build the shard index up front and time it; the solves reuse the
	// cached index.
	groups, shardMS, _ := Timed(func() (int, error) { return len(matcher.NewSharded(constraint.Set{}).SourceGroups()), nil })
	quality, err := PaperQuality()
	if err != nil {
		return nil, err
	}
	solver, err := solvers.ByName(p.Solver)
	if err != nil {
		return nil, err
	}
	l := &ladder{
		preset: p,
		prob: &opt.Problem{
			Universe:   u,
			Matcher:    matcher,
			Quality:    quality,
			MaxSources: p.Choose,
		},
		solver:  solver,
		groups:  groups,
		genMS:   genMS,
		matchMS: matchMS,
		shardMS: shardMS,
	}
	return l, nil
}

// solve runs the preset's solver once under its budget at the given pool
// sizes, returning the solution and the solve's wall time in milliseconds.
func (l *ladder) solve(parallel, groupWorkers int, rec *telemetry.Recorder) (*opt.Solution, float64, error) {
	p := l.preset
	return Timed(func() (*opt.Solution, error) {
		return l.solver.Solve(context.Background(), l.prob, opt.Options{
			Seed:         p.Seed,
			MaxEvals:     p.MaxEvals,
			MaxIters:     p.MaxIters,
			Patience:     p.Patience,
			Parallel:     parallel,
			GroupWorkers: groupWorkers,
			Recorder:     rec,
		})
	})
}

// ScaleBench builds the preset's universe through the streaming generator and
// solves it end to end, reporting each step's time and the solve's
// throughput. The partitioned solver's group pool is GOMAXPROCS.
func ScaleBench(p ScalePreset, parallel int, rec *telemetry.Recorder) (*ScaleBenchRow, error) {
	l, err := newLadder(p)
	if err != nil {
		return nil, err
	}
	sol, solveMS, err := l.solve(parallel, 0, rec)
	if err != nil {
		return nil, err
	}

	u := l.prob.Universe
	row := &ScaleBenchRow{
		Preset:  p.Name,
		Sources: u.Len(),
		Groups:  l.groups,
		Solver:  l.solver.Name(),
		GenMS:   l.genMS,
		MatchMS: l.matchMS,
		ShardMS: l.shardMS,
		SolveMS: solveMS,
		Evals:   sol.Evals,
		SigMB:   float64(u.SignatureBytes()) / (1 << 20),
		Quality: sol.Quality,
		Status:  string(sol.Status),
	}
	if solveMS > 0 {
		row.EvalsPerSec = float64(sol.Evals) / (solveMS / 1000)
	}
	return row, nil
}

// RenderScaleBench prints the scale ladder.
func RenderScaleBench(w io.Writer, rows []*ScaleBenchRow) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "preset\tsources\tgroups\tsolver\tgen_ms\tmatch_ms\tshard_ms\tsolve_ms\tevals\tevals_per_sec\tsig_mb\tquality\tstatus")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%.0f\t%.1f\t%.1f\t%.0f\t%d\t%.0f\t%.1f\t%.4f\t%s\n",
			r.Preset, r.Sources, r.Groups, r.Solver, r.GenMS, r.MatchMS, r.ShardMS,
			r.SolveMS, r.Evals, r.EvalsPerSec, r.SigMB, r.Quality, r.Status)
	}
	return tw.Flush()
}
