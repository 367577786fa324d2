package exp

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// newTab returns a tabwriter configured for aligned console tables.
func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// RenderFig5 prints Figure 5 as an aligned table, one row per universe size
// and constraint config.
func RenderFig5(w io.Writer, rows []SweepRow) error {
	return renderSweep(w, "universe", rows, func(r SweepRow) int { return r.Size })
}

// RenderFig67 prints Figures 6 and 7 as one aligned table (time and quality
// columns), one row per number of sources to choose and constraint config.
func RenderFig67(w io.Writer, rows []SweepRow) error {
	return renderSweep(w, "choose", rows, func(r SweepRow) int { return r.Choose })
}

// renderSweep prints a sweep of Figs 5–7 led by the swept parameter x.
func renderSweep(w io.Writer, x string, rows []SweepRow, at func(SweepRow) int) error {
	tw := newTab(w)
	fmt.Fprintf(tw, "%s\tconstraints\ttime_ms\tquality\tevals\n", x)
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%.1f\t%.4f\t%d\n", at(r), r.Config, r.Millis, r.Quality, r.Evals)
	}
	return tw.Flush()
}

// RenderFig8 prints Figure 8.
func RenderFig8(w io.Writer, rows []Fig8Row) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "card_weight\tsolution_tuples\tcard_fraction\tquality")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.1f\t%d\t%.4f\t%.4f\n", r.CardWeight, r.SolutionCard, r.CardFraction, r.Quality)
	}
	return tw.Flush()
}

// RenderTable1 prints Table 1.
func RenderTable1(w io.Writer, rows []Table1Row) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "sources_selected\ttrue_GAs\tattrs_in_true_GAs\ttrue_GAs_missed\tfalse_GAs")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\n", r.Choose, r.TrueGAs, r.AttrsInTrueGAs, r.Missed, r.FalseGAs)
	}
	return tw.Flush()
}

// RenderPCSA prints the probabilistic-counting accuracy sweep.
func RenderPCSA(w io.Writer, res *PCSAResult) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "sources_in_union\texact\testimate\trel_err")
	for _, r := range res.Rows {
		fmt.Fprintf(tw, "%d\t%d\t%.0f\t%.2f%%\n", r.Sources, r.Exact, r.Estimate, 100*r.RelErr)
	}
	fmt.Fprintf(tw, "\nmean_err\t%.2f%%\tworst_err\t%.2f%%\n", 100*res.MeanErr, 100*res.WorstErr)
	return tw.Flush()
}

// RenderSensitivity prints the weight-perturbation robustness result.
func RenderSensitivity(w io.Writer, res *SensitivityResult) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "metric\tvalue")
	fmt.Fprintf(tw, "trials\t%d\n", res.Trials)
	fmt.Fprintf(tw, "max_GA_changes\t%d\n", res.MaxGAChanges)
	fmt.Fprintf(tw, "mean_GA_changes\t%.2f\n", res.MeanGAChanges)
	fmt.Fprintf(tw, "max_source_changes\t%d\n", res.MaxSourceChanges)
	fmt.Fprintf(tw, "mean_source_changes\t%.2f\n", res.MeanSourceChanges)
	fmt.Fprintf(tw, "max_concept_changes\t%d\n", res.MaxConceptChanges)
	fmt.Fprintf(tw, "mean_concept_changes\t%.2f\n", res.MeanConceptChanges)
	return tw.Flush()
}

// RenderSolvers prints the solver comparison.
func RenderSolvers(w io.Writer, rows []SolverRow) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "solver\tmean_quality\tbest\tworst\ttime_ms")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%.4f\t%.1f\n", r.Solver, r.Quality, r.Best, r.Worst, r.Millis)
	}
	return tw.Flush()
}

// RenderConvergence prints the convergence-curve experiment.
func RenderConvergence(w io.Writer, rows []ConvergenceRow) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "solver\titer\tevals\tcur_q\tbest_q")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.4f\t%.4f\n", r.Solver, r.Iter, r.Evals, r.CurQ, r.BestQ)
	}
	return tw.Flush()
}

// matchTable renders a matching ablation: setting heads the first column,
// and the renamed_recovered and time_ms columns print only when set.
type matchTable struct {
	setting        string
	renamed, timed bool
}

func (t matchTable) render(w io.Writer, rows []MatchRow) error {
	tw := newTab(w)
	fmt.Fprintf(tw, "%s\tquality\tGAs\ttrue_GAs\tfalse_GAs\tattrs_covered", t.setting)
	if t.renamed {
		fmt.Fprint(tw, "\trenamed_recovered")
	}
	if t.timed {
		fmt.Fprint(tw, "\ttime_ms")
	}
	fmt.Fprintln(tw)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.4f\t%d\t%d\t%d\t%d", r.Setting, r.Quality, r.GAs, r.TrueGAs, r.FalseGAs, r.AttrsInTrueGAs)
		if t.renamed {
			fmt.Fprintf(tw, "\t%d", r.Renamed)
		}
		if t.timed {
			fmt.Fprintf(tw, "\t%.1f", r.Millis)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// RenderTenure prints the tabu-tenure ablation.
func RenderTenure(w io.Writer, rows []TenureRow) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "tenure\tquality\ttime_ms")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.4f\t%.1f\n", r.Tenure, r.Quality, r.Millis)
	}
	return tw.Flush()
}

// RenderPCSAMaps prints the PCSA bitmap-count ablation.
func RenderPCSAMaps(w io.Writer, rows []PCSAMapsRow) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "bitmaps\tsignature_bytes\tmean_err\tworst_err")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%.2f%%\t%.2f%%\n", r.NumMaps, r.SizeBytes, 100*r.MeanErr, 100*r.WorstErr)
	}
	return tw.Flush()
}
