package exp

import (
	"io"
	"time"
)

// Experiment is one entry of the harness: a table or figure, and the
// function that regenerates it at a scale and prints it.
type Experiment struct {
	// Name selects the experiment (mube-bench -exp, BenchmarkExperiments).
	Name string
	// Title heads the printed table.
	Title string
	// Run regenerates the experiment at sc and renders its table to w.
	Run func(sc Scale, w io.Writer) error
}

// Experiments lists every experiment of the harness in display order. It is
// the only list: mube-bench and BenchmarkExperiments iterate it.
func Experiments() []Experiment {
	return []Experiment{
		entry("fig5", "Figure 5: execution time vs universe size (choose 20)", Fig5, RenderFig5),
		entry("fig67", "Figures 6–7: execution time and overall quality vs sources to choose", Fig67, RenderFig67),
		entry("fig8", "Figure 8: solution cardinality vs Card-QEF weight", Fig8, RenderFig8),
		entry("table1", "Table 1: quality of GAs vs sources selected", Table1, RenderTable1),
		entry("pcsa", "PCSA accuracy vs exact counting (§7.3: worst case ≈7%)", PCSA, RenderPCSA),
		entry("sensitivity", "Sensitivity: ±15% weight perturbation (§7.4)", Sensitivity, RenderSensitivity),
		entry("solvers", "Solver comparison at equal evaluation budgets (§6)", Solvers, RenderSolvers),
		entry("convergence", "Convergence: Q(S) trajectory per solver, from telemetry traces", Convergence, RenderConvergence),
		entry("querycost", "Query cost vs solution size (§1 motivation, via the mediator)", QueryCost, RenderQueryCost),
		entry("ablation-sim", "Ablation: attribute similarity measures", AblationSimilarity, matchTable{setting: "measure", timed: true}.render),
		entry("ablation-linkage", "Ablation: cluster linkage (max vs avg)", AblationLinkage, matchTable{setting: "linkage"}.render),
		entry("ablation-tenure", "Ablation: tabu tenure", AblationTenure, RenderTenure),
		entry("ablation-hybrid", "Ablation: data-based similarity (MinHash value sketches) vs name-only", AblationHybrid, matchTable{setting: "data_weight", renamed: true, timed: true}.render),
		entry("ablation-pairwise", "Ablation: holistic clustering vs pairwise star mediation (§8)", AblationPairwise, matchTable{setting: "method", timed: true}.render),
		entry("ablation-pcsa", "Ablation: PCSA bitmap count vs estimation error", AblationPCSAMaps, RenderPCSAMaps),
		entry("faults", "Graceful degradation: Q(S) vs probe failure rate (§4 fallback)", Faults, RenderFaults),
		entry("churn", "Online integration: warm vs cold re-solve cost under churn (watch loop)", Churn, RenderChurn),
		entry("partition", "Parallel partitioned solving: group-worker invariance, speedup", Partition, RenderPartition),
	}
}

// entry adapts a runner and the renderer of its rows into an Experiment.
func entry[R any](name, title string, run func(Scale) (R, error), render func(io.Writer, R) error) Experiment {
	return Experiment{Name: name, Title: title, Run: func(sc Scale, w io.Writer) error {
		rows, err := run(sc)
		if err != nil {
			return err
		}
		return render(w, rows)
	}}
}

// Timed calls f and returns its results with the wall-clock time the call
// took, in milliseconds at microsecond resolution. It is the harness's only
// clock: every time column, and mube-bench's per-experiment and per-universe
// seconds, is measured through it.
func Timed[T any](f func() (T, error)) (T, float64, error) {
	start := time.Now()
	v, err := f()
	return v, float64(time.Since(start).Microseconds()) / 1000, err
}
