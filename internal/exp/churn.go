package exp

import (
	"context"
	"fmt"
	"io"

	"mube/internal/probe"
	"mube/internal/qef"
	"mube/internal/synth"
	"mube/internal/watch"
)

// ChurnRow is one churn rate's outcome over a full watch run: how much
// quality the online loop held onto, and what the warm-started re-solves cost
// relative to the from-scratch rebuild+cold-solve reference.
type ChurnRow struct {
	// Rate is the per-epoch churn fraction (deaths + drift).
	Rate float64
	// Epochs is the number of churn ticks run.
	Epochs int
	// Sources is the universe size after the final epoch.
	Sources int
	// BaselineQ is the epoch-0 solve on the unchurned universe; FinalQ the
	// last epoch's warm re-solve.
	BaselineQ, FinalQ float64
	// QRecovery is the mean per-epoch recovered-quality fraction
	// (DeltaReport.QRecovery against the baseline).
	QRecovery float64
	// WarmEvals and ColdEvals total the evaluation counts of the warm
	// re-solves and their cold references across all epochs; WarmFrac is
	// their ratio — the headline warm-start saving.
	WarmEvals, ColdEvals int
	WarmFrac             float64
	// Died and Arrived total the sources lost and gained across all epochs.
	Died, Arrived int
}

// ChurnRates are the per-epoch churn fractions the online-integration
// experiment sweeps.
var ChurnRates = []float64{0, 0.1, 0.3}

// ChurnEpochs is the number of ticks per rate.
const ChurnEpochs = 10

// Churn measures online integration under churn (ROADMAP item 3): for each
// rate, a watch loop runs ChurnEpochs ticks over a fresh BaseUniverse-sized
// world — MTTF-weighted deaths, vocabulary drift, synth arrivals — applying
// incremental universe updates and delta-pool warm re-solves (the optional
// pool is the carried solution plus the epoch's touched sources), with the
// full-pool rebuild+cold reference (Config.Cold) solved alongside.
// The universes are generated fresh rather than through the scale's cache:
// the loop mutates its world in place.
func Churn(sc Scale) ([]ChurnRow, error) {
	rows := make([]ChurnRow, 0, len(ChurnRates))
	for _, rate := range ChurnRates {
		cfg := synth.Scaled(sc.DataFactor)
		cfg.NumSources = sc.BaseUniverse
		cfg.Seed = sc.Seed
		cfg.Sig = sc.Sig
		u, err := synth.GenerateUniverse(cfg)
		if err != nil {
			return nil, err
		}
		arrivals := synth.Scaled(sc.DataFactor)
		arrivals.Sig = sc.Sig
		l, err := watch.New(watch.Config{
			Universe:   u,
			Epochs:     ChurnEpochs,
			Seed:       sc.Seed,
			ChurnRate:  rate,
			Arrivals:   arrivals,
			MaxSources: sc.ChooseDefault,
			Solver:     "tabu",
			QEFs:       paperQEFs(),
			Weights:    qef.PaperDefaults(),
			Options:    sc.Options(sc.Seed),
			Probe:      probe.Policy{},
			Faults:     sc.plan(),
			Cold:       true,
			DeltaPool:  true,
			Recorder:   sc.Rec,
		})
		if err != nil {
			return nil, err
		}
		reports, err := l.Run(context.Background())
		if err != nil {
			return nil, err
		}
		base := reports[0]
		last := reports[len(reports)-1]
		row := ChurnRow{
			Rate:      rate,
			Epochs:    ChurnEpochs,
			Sources:   last.Sources,
			BaselineQ: base.QAfter,
			FinalQ:    last.QAfter,
		}
		for _, r := range reports[1:] {
			row.QRecovery += r.QRecovery(base.QAfter)
			row.WarmEvals += r.WarmEvals
			row.ColdEvals += r.ColdEvals
			row.Died += r.Died + r.Dropped
			row.Arrived += r.Arrived
		}
		row.QRecovery /= float64(len(reports) - 1)
		if row.ColdEvals > 0 {
			row.WarmFrac = float64(row.WarmEvals) / float64(row.ColdEvals)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderChurn prints the churn ladder.
func RenderChurn(w io.Writer, rows []ChurnRow) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "churn\tepochs\tsources\tbase_q\tfinal_q\tq_recovery\twarm_evals\tcold_evals\twarm_frac\tdied\tarrived")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.0f%%\t%d\t%d\t%.4f\t%.4f\t%.3f\t%d\t%d\t%.3f\t%d\t%d\n",
			r.Rate*100, r.Epochs, r.Sources, r.BaselineQ, r.FinalQ, r.QRecovery,
			r.WarmEvals, r.ColdEvals, r.WarmFrac, r.Died, r.Arrived)
	}
	return tw.Flush()
}
