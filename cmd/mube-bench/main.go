// Command mube-bench regenerates every table and figure of the paper's
// evaluation (§7) plus the repository's ablations, printing each as an
// aligned text table.
//
// Usage:
//
//	mube-bench -exp all -scale quick
//	mube-bench -exp fig5 -scale full
//	mube-bench -exp fig67 -scale quick -parallel 4
//
// The -parallel flag sets the evaluator worker-pool size (0 = GOMAXPROCS,
// 1 = sequential). Results are identical at any setting — only wall-clock
// changes — and the run header prints the effective worker count.
//
// Experiments: fig5, fig67 (time and quality: Figures 6 and 7), fig8,
// table1, pcsa, sensitivity, solvers, convergence, ablation-sim,
// ablation-linkage, ablation-tenure, ablation-pcsa, faults, churn,
// partition, all.
//
// The -universe flag switches to the universe-scale benchmark ladder
// (50 | 10k | 100k | 1m | all): build a streamed synthetic universe at the
// preset size and solve it end to end, printing generation, shard-index, and
// solve economics plus an archivable metrics line. -group-workers overrides
// the partitioned solver's group pool size for those runs (0 = the preset's
// own setting).
//
// The -debug-addr flag (off by default) boots telemetry.Serve on the given
// address for live profiling: Prometheus-style /metrics, recently completed
// spans on /spans, expvar (/debug/vars), and pprof (/debug/pprof/). The
// endpoint only reads snapshots — mube-vet's telemetry analyzer keeps the
// debug imports confined to the telemetry facade — and never feeds back into
// a solve.
//
// The -faults flag applies a deterministic fault plan (internal/fault) to
// universe acquisition for every experiment; the run header then prints the
// acquisition health report so degraded runs are never mistaken for clean
// ones.
//
// Scales: "full" reproduces the paper's settings (700 sources, 4M-tuple
// pool; minutes of runtime), "quick" is a 1%-data configuration with the
// same qualitative shapes (seconds).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mube/internal/exp"
	"mube/internal/fault"
	"mube/internal/telemetry"
)

// experiments maps experiment names to runners in display order.
var experiments = []struct {
	name  string
	title string
	run   func(exp.Scale, io.Writer) error
}{
	{"fig5", "Figure 5: execution time vs universe size (choose 20)", func(sc exp.Scale, w io.Writer) error {
		rows, err := exp.Fig5(sc)
		if err != nil {
			return err
		}
		return exp.RenderFig5(w, rows)
	}},
	{"fig67", "Figures 6–7: execution time and overall quality vs sources to choose", func(sc exp.Scale, w io.Writer) error {
		rows, err := exp.Fig67(sc)
		if err != nil {
			return err
		}
		return exp.RenderFig67(w, rows)
	}},
	{"fig8", "Figure 8: solution cardinality vs Card-QEF weight", func(sc exp.Scale, w io.Writer) error {
		rows, err := exp.Fig8(sc)
		if err != nil {
			return err
		}
		return exp.RenderFig8(w, rows)
	}},
	{"table1", "Table 1: quality of GAs vs sources selected", func(sc exp.Scale, w io.Writer) error {
		rows, err := exp.Table1(sc)
		if err != nil {
			return err
		}
		return exp.RenderTable1(w, rows)
	}},
	{"pcsa", "PCSA accuracy vs exact counting (§7.3: worst case ≈7%)", func(sc exp.Scale, w io.Writer) error {
		res, err := exp.PCSA(sc)
		if err != nil {
			return err
		}
		return exp.RenderPCSA(w, res)
	}},
	{"sensitivity", "Sensitivity: ±15% weight perturbation (§7.4)", func(sc exp.Scale, w io.Writer) error {
		res, err := exp.Sensitivity(sc)
		if err != nil {
			return err
		}
		return exp.RenderSensitivity(w, res)
	}},
	{"solvers", "Solver comparison at equal evaluation budgets (§6)", func(sc exp.Scale, w io.Writer) error {
		rows, err := exp.Solvers(sc)
		if err != nil {
			return err
		}
		return exp.RenderSolvers(w, rows)
	}},
	{"convergence", "Convergence: Q(S) trajectory per solver, from telemetry traces", func(sc exp.Scale, w io.Writer) error {
		rows, err := exp.Convergence(sc)
		if err != nil {
			return err
		}
		return exp.RenderConvergence(w, rows)
	}},
	{"querycost", "Query cost vs solution size (§1 motivation, via the mediator)", func(sc exp.Scale, w io.Writer) error {
		rows, err := exp.QueryCost(sc)
		if err != nil {
			return err
		}
		return exp.RenderQueryCost(w, rows)
	}},
	{"ablation-sim", "Ablation: attribute similarity measures", func(sc exp.Scale, w io.Writer) error {
		rows, err := exp.AblationSimilarity(sc)
		if err != nil {
			return err
		}
		return exp.RenderSimilarity(w, rows)
	}},
	{"ablation-linkage", "Ablation: cluster linkage (max vs avg)", func(sc exp.Scale, w io.Writer) error {
		rows, err := exp.AblationLinkage(sc)
		if err != nil {
			return err
		}
		return exp.RenderLinkage(w, rows)
	}},
	{"ablation-tenure", "Ablation: tabu tenure", func(sc exp.Scale, w io.Writer) error {
		rows, err := exp.AblationTenure(sc)
		if err != nil {
			return err
		}
		return exp.RenderTenure(w, rows)
	}},
	{"ablation-hybrid", "Ablation: data-based similarity (MinHash value sketches) vs name-only", func(sc exp.Scale, w io.Writer) error {
		rows, err := exp.AblationHybrid(sc)
		if err != nil {
			return err
		}
		return exp.RenderHybrid(w, rows)
	}},
	{"ablation-pairwise", "Ablation: holistic clustering vs pairwise star mediation (§8)", func(sc exp.Scale, w io.Writer) error {
		rows, err := exp.AblationPairwise(sc)
		if err != nil {
			return err
		}
		return exp.RenderPairwise(w, rows)
	}},
	{"ablation-pcsa", "Ablation: PCSA bitmap count vs estimation error", func(sc exp.Scale, w io.Writer) error {
		rows, err := exp.AblationPCSAMaps(sc)
		if err != nil {
			return err
		}
		return exp.RenderPCSAMaps(w, rows)
	}},
	{"faults", "Graceful degradation: Q(S) vs probe failure rate (§4 fallback)", func(sc exp.Scale, w io.Writer) error {
		rows, err := exp.Faults(sc)
		if err != nil {
			return err
		}
		return exp.RenderFaults(w, rows)
	}},
	{"churn", "Online integration: warm vs cold re-solve cost under churn (watch loop)", func(sc exp.Scale, w io.Writer) error {
		rows, err := exp.Churn(sc)
		if err != nil {
			return err
		}
		return exp.RenderChurn(w, rows)
	}},
	{"partition", "Parallel partitioned solving: group-worker invariance, speedup, candidate index", func(sc exp.Scale, w io.Writer) error {
		res, err := exp.Partition(sc)
		if err != nil {
			return err
		}
		return exp.RenderPartition(w, res)
	}},
}

func main() {
	expName := flag.String("exp", "all", "experiment to run (or 'all')")
	scaleName := flag.String("scale", "quick", "experiment scale: full | quick")
	universe := flag.String("universe", "", "run the universe-scale benchmark instead: 50 | 10k | 100k | 1m | all")
	smoke := flag.Bool("smoke", false, "with -universe: reduce solver budgets to CI smoke size")
	groupWorkers := flag.Int("group-workers", 0, "with -universe: partitioned-solver group pool size (0 = preset default)")
	seed := flag.Int64("seed", 0, "override the scale's base seed (0 = keep)")
	parallel := flag.Int("parallel", 0, "evaluator worker-pool size (0 = GOMAXPROCS, 1 = sequential)")
	faults := flag.String("faults", "", "fault plan applied to universe acquisition, e.g. rate=0.3,seed=7 (\"\" or \"none\" = clean)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /spans, expvar, and pprof on this address, e.g. localhost:6060 (\"\" = off)")
	flag.Parse()

	var sc exp.Scale
	switch *scaleName {
	case "full":
		sc = exp.Full()
	case "quick":
		sc = exp.Quick()
	default:
		fmt.Fprintf(os.Stderr, "mube-bench: unknown scale %q (want full or quick)\n", *scaleName)
		os.Exit(2)
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "mube-bench: -parallel must be >= 0, got %d\n", *parallel)
		os.Exit(2)
	}
	sc.Parallel = *parallel
	plan, err := fault.ParsePlan(*faults)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mube-bench: %v\n", err)
		os.Exit(2)
	}
	if plan.Enabled() {
		sc.Faults = &plan
	}

	if *debugAddr != "" {
		// The recorder feeds the expvar snapshot; attaching it cannot change
		// results (see internal/telemetry's determinism contract).
		ring := telemetry.NewSpanRing(0)
		rec := telemetry.New(ring)
		sc.Rec = rec
		srv, err := startDebugServer(*debugAddr, rec, ring)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mube-bench: debug server: %v\n", err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Printf("debug: /metrics, /spans, expvar, and pprof on http://%s/\n", srv.Addr())
	}

	// Universe-scale mode: build a streamed universe at the preset size and
	// solve it end to end, instead of reproducing the paper's figures.
	if *universe != "" {
		names := []string{*universe}
		if *universe == "all" {
			names = names[:0]
			for _, p := range exp.ScalePresets() {
				names = append(names, p.Name)
			}
		}
		fmt.Println(telemetry.Header("mube-bench",
			telemetry.KVStr("universe", *universe),
			telemetry.KVStr("smoke", strconv.FormatBool(*smoke)),
			telemetry.KVInt("eval-workers", sc.Workers()),
			telemetry.KVInt("GOMAXPROCS", runtime.GOMAXPROCS(0)),
		))
		var rows []*exp.ScaleBenchRow
		for _, name := range names {
			preset, err := exp.ScalePresetByName(name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mube-bench: %v\n", err)
				os.Exit(2)
			}
			if *smoke {
				preset = preset.Reduced()
			}
			if *groupWorkers != 0 {
				preset.GroupWorkers = *groupWorkers
			}
			start := time.Now()
			row, err := exp.ScaleBench(preset, sc.Parallel, sc.Rec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mube-bench: universe %s: %v\n", name, err)
				os.Exit(1)
			}
			rows = append(rows, row)
			fmt.Printf("(universe %s in %.1fs)\n", name, time.Since(start).Seconds())
		}
		fmt.Println()
		if err := exp.RenderScaleBench(os.Stdout, rows); err != nil {
			fmt.Fprintf(os.Stderr, "mube-bench: %v\n", err)
			os.Exit(1)
		}
		// Archivable metrics line: per-preset solve wall-clock plus the
		// matcher and candidate-index build of the largest rung, so
		// `mube-bench -universe ... | mube-benchjson -merge` tracks them
		// across commits.
		metrics := make(map[string]float64, len(rows)+4)
		for _, r := range rows {
			metrics["solve_ms_"+r.Preset] = r.SolveMS
		}
		last := rows[len(rows)-1]
		metrics["pair_candidates"] = float64(last.PairCandidates)
		metrics["pair_candidates_frac"] = last.PairFrac()
		metrics["shard_build_ns"] = last.ShardMS * 1e6
		metrics["match_build_ns"] = last.MatchMS * 1e6
		fmt.Println(telemetry.MetricsLine(metrics))
		return
	}

	// Run header: make every printed number attributable to a worker count
	// and a fault plan — degraded runs must never read as clean ones.
	fmt.Println(telemetry.Header("mube-bench",
		telemetry.KVStr("scale", sc.Name),
		telemetry.KVStr("seed", strconv.FormatInt(sc.Seed, 10)),
		telemetry.KVInt("eval-workers", sc.Workers()),
		telemetry.KVStr("faults", plan.String()),
		telemetry.KVInt("GOMAXPROCS", runtime.GOMAXPROCS(0)),
	))
	if plan.Enabled() {
		health, err := sc.Health(sc.BaseUniverse)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mube-bench: acquire base universe: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("base universe (N=%d) acquisition: %s\n", sc.BaseUniverse, health)
		if names := health.DegradedNames(); len(names) > 0 {
			fmt.Printf("  degraded: %s\n", strings.Join(names, " "))
		}
		if names := health.DroppedNames(); len(names) > 0 {
			fmt.Printf("  dropped: %s\n", strings.Join(names, " "))
		}
	}
	fmt.Println()

	ran := 0
	for _, e := range experiments {
		if *expName != "all" && *expName != e.name {
			continue
		}
		ran++
		fmt.Printf("== %s [%s scale] ==\n", e.title, sc.Name)
		start := time.Now()
		if err := e.run(sc, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "mube-bench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %.1fs)\n\n", e.name, time.Since(start).Seconds())
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "mube-bench: unknown experiment %q\n", *expName)
		fmt.Fprintf(os.Stderr, "available:")
		for _, e := range experiments {
			fmt.Fprintf(os.Stderr, " %s", e.name)
		}
		fmt.Fprintln(os.Stderr, " all")
		os.Exit(2)
	}
}
