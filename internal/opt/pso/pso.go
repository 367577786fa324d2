// Package pso implements binary particle swarm optimization, one of the
// baseline solvers the paper compared against tabu search (§6). Each
// particle's position is a bit vector over the optional sources (required
// sources are always in); velocities evolve toward the particle's own best
// and the swarm's best, positions are re-sampled through a sigmoid, and a
// repair step trims positions back to the size cap m. The swarm uses the
// synchronous gbest update (the global best is frozen for the duration of
// each iteration), so the whole population is scored as one parallel batch.
package pso

import (
	"context"
	"math"

	"mube/internal/opt"
	"mube/internal/schema"
	"mube/internal/telemetry"
	"sort"
)

// Solver is binary PSO.
type Solver struct{}

// The swarm size and the standard PSO coefficients (w, c1, c2).
const (
	particles = 16
	inertia   = 0.7
	cognitive = 1.4
	social    = 1.4
)

// Name returns "pso".
func (Solver) Name() string { return "pso" }

// particle is one swarm member over the optional-source dimensions.
type particle struct {
	pos     []bool
	vel     []float64
	bestPos []bool
	bestQ   float64
}

// Solve runs the swarm within the options' budget; a done ctx stops the
// iteration loop and returns the best position found so far.
func (s Solver) Solve(ctx context.Context, p *opt.Problem, opts opt.Options) (*opt.Solution, error) {
	opts = opts.WithDefaults()
	search, err := opt.NewSearch(ctx, p, opts)
	if err != nil {
		return nil, err
	}
	defer search.Release()
	span := search.BeginSolve(s.Name())
	dims := len(search.Optional)
	freeSlots := search.MaxSources - len(search.Required)

	// toIDs converts a position vector to a feasible sorted id set.
	toIDs := func(pos []bool) []schema.SourceID {
		ids := append([]schema.SourceID(nil), search.Required...)
		for d, on := range pos {
			if on {
				ids = append(ids, search.Optional[d])
			}
		}
		return opt.SortIDs(ids)
	}

	// repair clamps the number of set bits to freeSlots, keeping the bits
	// with the strongest (most positive) velocities.
	repair := func(pos []bool, vel []float64) {
		var on []int
		for d, b := range pos {
			if b {
				on = append(on, d)
			}
		}
		if len(on) <= freeSlots {
			return
		}
		sort.Slice(on, func(i, j int) bool { return vel[on[i]] > vel[on[j]] })
		for _, d := range on[freeSlots:] {
			pos[d] = false
		}
	}

	// The swarm updates synchronously: every iteration first moves all
	// particles (all randomness, on this goroutine), then scores the whole
	// population as one batch — fanning out to the evaluator's worker pool —
	// and finally folds personal/global bests in particle order. The global
	// best used by the velocity update is the one frozen at the start of the
	// iteration (classic synchronous gbest PSO), which is what makes the
	// population independent and batchable.
	swarm := make([]*particle, particles)
	cands := make([][]schema.SourceID, particles)
	for i := range swarm {
		pt := &particle{
			pos: make([]bool, dims),
			vel: make([]float64, dims),
		}
		// Random initial position with ≈ freeSlots bits set.
		for d := 0; d < dims; d++ {
			if dims > 0 && search.Rand.Float64() < float64(freeSlots)/float64(dims) {
				pt.pos[d] = true
			}
			pt.vel[d] = search.Rand.Float64()*2 - 1
		}
		repair(pt.pos, pt.vel)
		pt.bestPos = append([]bool(nil), pt.pos...)
		swarm[i] = pt
		cands[i] = toIDs(pt.pos)
	}
	// Seed the global best with the first particle's position before any
	// scoring, so a solve canceled during the very first batch still returns
	// a feasible (if unremarkable) source set rather than nothing.
	globalBest := append([]bool(nil), swarm[0].pos...)
	globalQ := -1.0
	for i, q := range search.Eval.EvalBatch(cands) {
		pt := swarm[i]
		pt.bestQ = q
		if q > globalQ {
			globalQ = q
			globalBest = append(globalBest[:0], pt.pos...)
		}
	}

	noImprove := 0
	for iter := 0; iter < opts.MaxIters && noImprove < opts.Patience && !search.Eval.Exhausted() && !search.Stopped(); iter++ {
		for i, pt := range swarm {
			for d := 0; d < dims; d++ {
				r1, r2 := search.Rand.Float64(), search.Rand.Float64()
				pt.vel[d] = inertia*pt.vel[d] +
					cognitive*r1*indicator(pt.bestPos[d], pt.pos[d]) +
					social*r2*indicator(globalBest[d], pt.pos[d])
				// Clamp velocities to keep sigmoid responsive.
				if pt.vel[d] > 4 {
					pt.vel[d] = 4
				} else if pt.vel[d] < -4 {
					pt.vel[d] = -4
				}
				pt.pos[d] = search.Rand.Float64() < sigmoid(pt.vel[d])
			}
			repair(pt.pos, pt.vel)
			cands[i] = toIDs(pt.pos)
		}
		improved := false
		iterQ := -1.0
		for i, q := range search.Eval.EvalBatch(cands) {
			pt := swarm[i]
			if q > iterQ {
				iterQ = q
			}
			if q > pt.bestQ {
				pt.bestQ = q
				pt.bestPos = append(pt.bestPos[:0], pt.pos...)
			}
			if q > globalQ {
				globalQ = q
				globalBest = append(globalBest[:0], pt.pos...)
				improved = true
			}
		}
		if improved {
			noImprove = 0
		} else {
			noImprove++
		}
		search.TraceIter(s.Name(), iter, iterQ, globalQ,
			telemetry.Int("particles", particles))
	}
	sol := search.Eval.Solution(toIDs(globalBest), s.Name())
	span.End()
	return sol, nil
}

// indicator returns +1 when the reference bit is set and the current bit is
// not (pull toward setting), −1 in the opposite case, and 0 when equal.
func indicator(ref, cur bool) float64 {
	switch {
	case ref && !cur:
		return 1
	case !ref && cur:
		return -1
	}
	return 0
}

// sigmoid is the logistic squashing function used by binary PSO.
func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
