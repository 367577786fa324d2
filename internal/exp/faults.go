package exp

import (
	"context"
	"fmt"
	"io"

	"mube/internal/constraint"
	"mube/internal/fault"
	"mube/internal/opt"
)

// FaultsRow is one failure rate's outcome: how much of the universe survived
// acquisition and how much Q(S) the solver could still extract from it.
type FaultsRow struct {
	// Rate is the injected per-attempt failure probability.
	Rate float64
	// Plan is the canonical fault-plan string.
	Plan string
	// Universe is the number of sources that joined the universe.
	Universe int
	// Degraded and Dropped count acquisition outcomes (0 for a clean run).
	Degraded int
	Dropped  int
	// Quality is Q(S) of the solve over the degraded universe.
	Quality float64
	// Feasible reports whether the solution satisfied the hard constraints.
	Feasible bool
	// Status is how the solve ended.
	Status opt.Status
	// Evals is the evaluation count the solve consumed.
	Evals int
}

// FaultRates are the failure rates the robustness experiment sweeps.
var FaultRates = []float64{0, 0.1, 0.3}

// Faults measures graceful degradation: the base universe is re-acquired
// under increasing probe failure rates and solved with the standard objective
// each time. The paper's §4 fallback predicts Q(S) declines smoothly — data
// QEFs lose the degraded sources' synopses while schema QEFs keep scoring —
// rather than the pipeline failing outright.
func Faults(sc Scale) ([]FaultsRow, error) {
	rows := make([]FaultsRow, 0, len(FaultRates))
	for _, rate := range FaultRates {
		fsc := sc
		fsc.Faults = nil
		if rate > 0 {
			fsc.Faults = &fault.Plan{Seed: sc.Seed, Rate: rate}
		}
		res, err := fsc.Universe(sc.BaseUniverse)
		if err != nil {
			return nil, err
		}
		health, err := fsc.Health(sc.BaseUniverse)
		if err != nil {
			return nil, err
		}
		m := sc.ChooseDefault
		if n := res.Universe.Len(); m > n {
			m = n
		}
		p, err := fsc.Problem(res, m, constraint.Set{}, nil)
		if err != nil {
			return nil, err
		}
		sol, err := fsc.Solver(sc.BaseUniverse).Solve(context.Background(), p, fsc.Options(sc.Seed))
		if err != nil {
			return nil, err
		}
		row := FaultsRow{
			Rate:     rate,
			Plan:     fsc.plan().String(),
			Universe: res.Universe.Len(),
			Quality:  sol.Quality,
			Feasible: p.Feasible(sol.IDs),
			Status:   sol.Status,
			Evals:    sol.Evals,
		}
		if health != nil {
			row.Degraded = health.Degraded
			row.Dropped = health.Dropped
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFaults prints the graceful-degradation sweep.
func RenderFaults(w io.Writer, rows []FaultsRow) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "fail_rate\tuniverse\tdegraded\tdropped\tquality\tfeasible\tstatus\tevals")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.0f%%\t%d\t%d\t%d\t%.4f\t%v\t%s\t%d\n",
			r.Rate*100, r.Universe, r.Degraded, r.Dropped, r.Quality, r.Feasible, r.Status, r.Evals)
	}
	return tw.Flush()
}
