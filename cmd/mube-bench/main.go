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
// The experiments are exp.Experiments(), in display order: fig5, fig67
// (time and quality: Figures 6 and 7), fig8, table1, pcsa, sensitivity,
// solvers, convergence, querycost, ablation-sim, ablation-linkage,
// ablation-tenure, ablation-hybrid, ablation-pairwise, ablation-pcsa,
// faults, churn, partition; -exp all runs every one. An unknown name
// prints the list.
//
// The -universe flag switches to the universe-scale benchmark ladder
// (50 | 10k | 100k | 1m | all): build a streamed synthetic universe at the
// preset size and solve it end to end, printing generation, matcher,
// shard-index, and solve economics. -group-workers overrides the partitioned
// solver's group pool size for those runs (0 = the preset's own setting).
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

	"mube/internal/exp"
	"mube/internal/fault"
	"mube/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is mube-bench with its arguments and output streams: it returns the
// exit code (0 ok, 1 a failed run, 2 a usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mube-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	expName := fs.String("exp", "all", "experiment to run (or 'all')")
	scaleName := fs.String("scale", "quick", "experiment scale: full | quick")
	universe := fs.String("universe", "", "run the universe-scale benchmark instead: 50 | 10k | 100k | 1m | all")
	smoke := fs.Bool("smoke", false, "with -universe: reduce solver budgets to CI smoke size")
	groupWorkers := fs.Int("group-workers", 0, "with -universe: partitioned-solver group pool size (0 = preset default)")
	seed := fs.Int64("seed", 0, "override the scale's base seed (0 = keep)")
	parallel := fs.Int("parallel", 0, "evaluator worker-pool size (0 = GOMAXPROCS, 1 = sequential)")
	faults := fs.String("faults", "", "fault plan applied to universe acquisition, e.g. rate=0.3,seed=7 (\"\" or \"none\" = clean)")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /spans, expvar, and pprof on this address, e.g. localhost:6060 (\"\" = off)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "mube-bench: "+format+"\n", a...)
		return code
	}

	var sc exp.Scale
	switch *scaleName {
	case "full":
		sc = exp.Full()
	case "quick":
		sc = exp.Quick()
	default:
		return fail(2, "unknown scale %q (want full or quick)", *scaleName)
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *parallel < 0 {
		return fail(2, "-parallel must be >= 0, got %d", *parallel)
	}
	sc.Parallel = *parallel
	plan, err := fault.ParsePlan(*faults)
	if err != nil {
		return fail(2, "%v", err)
	}
	if plan.Enabled() {
		sc.Faults = &plan
	}
	var selected []exp.Experiment
	if *universe == "" {
		for _, e := range exp.Experiments() {
			if *expName == "all" || *expName == e.Name {
				selected = append(selected, e)
			}
		}
		if len(selected) == 0 {
			var names []string
			for _, e := range exp.Experiments() {
				names = append(names, e.Name)
			}
			return fail(2, "unknown experiment %q\navailable: %s all", *expName, strings.Join(names, " "))
		}
	}

	if *debugAddr != "" {
		// The recorder feeds /metrics and the ring feeds /spans; attaching
		// them cannot change results (see internal/telemetry's determinism
		// contract).
		ring := telemetry.NewSpanRing(0)
		rec := telemetry.New(ring)
		sc.Rec = rec
		srv, err := telemetry.Serve(*debugAddr, rec, ring)
		if err != nil {
			return fail(2, "debug server: %v", err)
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "debug: /metrics, /spans, expvar, and pprof on http://%s/\n", srv.Addr())
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
		fmt.Fprintln(stdout, telemetry.Header("mube-bench",
			telemetry.KVStr("universe", *universe),
			telemetry.KVStr("smoke", strconv.FormatBool(*smoke)),
			telemetry.KVInt("eval-workers", sc.Workers()),
			telemetry.KVInt("GOMAXPROCS", runtime.GOMAXPROCS(0)),
		))
		var rows []*exp.ScaleBenchRow
		for _, name := range names {
			preset, err := exp.ScalePresetByName(name)
			if err != nil {
				return fail(2, "%v", err)
			}
			if *smoke {
				preset = preset.Reduced()
			}
			if *groupWorkers != 0 {
				preset.GroupWorkers = *groupWorkers
			}
			row, ms, err := exp.Timed(func() (*exp.ScaleBenchRow, error) { return exp.ScaleBench(preset, sc.Parallel, sc.Rec) })
			if err != nil {
				return fail(1, "universe %s: %v", name, err)
			}
			rows = append(rows, row)
			fmt.Fprintf(stdout, "(universe %s in %.1fs)\n", name, ms/1000)
		}
		fmt.Fprintln(stdout)
		if err := exp.RenderScaleBench(stdout, rows); err != nil {
			return fail(1, "%v", err)
		}
		return 0
	}

	// Run header: make every printed number attributable to a worker count
	// and a fault plan — degraded runs must never read as clean ones.
	fmt.Fprintln(stdout, telemetry.Header("mube-bench",
		telemetry.KVStr("scale", sc.Name),
		telemetry.KVStr("seed", strconv.FormatInt(sc.Seed, 10)),
		telemetry.KVInt("eval-workers", sc.Workers()),
		telemetry.KVStr("faults", plan.String()),
		telemetry.KVInt("GOMAXPROCS", runtime.GOMAXPROCS(0)),
	))
	if plan.Enabled() {
		health, err := sc.Health(sc.BaseUniverse)
		if err != nil {
			return fail(1, "acquire base universe: %v", err)
		}
		fmt.Fprintf(stdout, "base universe (N=%d) acquisition: %s\n", sc.BaseUniverse, health)
		if names := health.DegradedNames(); len(names) > 0 {
			fmt.Fprintf(stdout, "  degraded: %s\n", strings.Join(names, " "))
		}
		if names := health.DroppedNames(); len(names) > 0 {
			fmt.Fprintf(stdout, "  dropped: %s\n", strings.Join(names, " "))
		}
	}
	fmt.Fprintln(stdout)

	for _, e := range selected {
		fmt.Fprintf(stdout, "== %s [%s scale] ==\n", e.Title, sc.Name)
		_, ms, err := exp.Timed(func() (any, error) { return nil, e.Run(sc, stdout) })
		if err != nil {
			return fail(1, "%s: %v", e.Name, err)
		}
		fmt.Fprintf(stdout, "(%s in %.1fs)\n\n", e.Name, ms/1000)
	}
	return 0
}
