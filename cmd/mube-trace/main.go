// Command mube-trace reads the JSONL traces written by `mube solve -trace`,
// `mube watch -trace`, and the bench/experiment harnesses, reconstructs the
// span tree, and renders profiling reports:
//
//	mube-trace trace.jsonl                     # flame profile (default)
//	mube-trace -report waterfall trace.jsonl   # chronological span listing
//	mube-trace -report churn trace.jsonl       # per-epoch churn diff table
//	mube-trace -report convergence trace.jsonl # per-solve Q convergence
//	mube-trace -compare old.jsonl new.jsonl    # phase-profile diff
//
// The flame report aggregates spans by tree path into per-phase cumulative
// and self time (span counts on unclocked traces), the waterfall lists every
// span occurrence with its inherited attribute context, churn tabulates the
// watch loop's per-epoch delta events, and convergence summarizes each
// solver run's Q trajectory.
//
// -compare diffs two traces' phase profiles: cumulative/self nanoseconds
// that grow by more than 10% flag as REGRESSION, and -strict turns any flag
// into a nonzero exit for CI gating. Span counts, event counts and final Q
// print as informational context.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"mube/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mube-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	report := fs.String("report", "flame", "report to render: flame, waterfall, churn, convergence")
	compare := fs.Bool("compare", false, "diff two traces' phase profiles (old.jsonl new.jsonl)")
	strict := fs.Bool("strict", false, "with -compare: exit nonzero when any metric regressed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "mube-trace: -compare needs exactly two trace files (old new)")
			return 2
		}
		regressions, err := runCompare(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintf(stderr, "mube-trace: %v\n", err)
			return 1
		}
		if *strict && regressions > 0 {
			return 1
		}
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: mube-trace [-report flame|waterfall|churn|convergence] trace.jsonl")
		fmt.Fprintln(stderr, "       mube-trace -compare [-strict] old.jsonl new.jsonl")
		return 2
	}
	evs, err := loadTrace(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "mube-trace: %v\n", err)
		return 1
	}
	switch *report {
	case "flame":
		err = telemetry.WriteFlame(stdout, telemetry.BuildTree(evs))
	case "waterfall":
		err = telemetry.WriteWaterfall(stdout, telemetry.BuildTree(evs))
	case "churn":
		err = writeChurn(stdout, evs)
	case "convergence":
		err = writeConvergence(stdout, evs)
	default:
		fmt.Fprintf(stderr, "mube-trace: unknown report %q\n", *report)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "mube-trace: %v\n", err)
		return 1
	}
	return 0
}

func loadTrace(path string) ([]telemetry.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	evs, err := telemetry.ParseTrace(f)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(evs) == 0 {
		return nil, fmt.Errorf("%s: empty trace", path)
	}
	return evs, nil
}

// attrInt / attrFloat read typed attrs leniently: a missing or differently
// typed key reads as zero, so reports degrade instead of erroring on traces
// from older schemas.
func attrInt(ev telemetry.Event, key string) int64 {
	if v, ok := ev.Attr(key); ok {
		if n, ok := v.(int64); ok {
			return n
		}
	}
	return 0
}

func attrFloat(ev telemetry.Event, key string) float64 {
	if v, ok := ev.Attr(key); ok {
		switch x := v.(type) {
		case float64:
			return x
		case int64:
			return float64(x)
		}
	}
	return 0
}

func attrStr(ev telemetry.Event, key string) string {
	if v, ok := ev.Attr(key); ok {
		if s, ok := v.(string); ok {
			return s
		}
	}
	return ""
}

// writeChurn tabulates watch.epoch events — the per-epoch account of what
// churn did (deaths, drops, degradations, recoveries, drift, arrivals) and
// what the re-solve recovered.
func writeChurn(w io.Writer, evs []telemetry.Event) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "epoch\tsources\tdied\tdropped\tdegraded\trecovered\tdrifted\tarrived\tcons_dropped\tq_before\tq_after\twarm_evals\tcold_evals\tstatus\t")
	n := 0
	for _, ev := range evs {
		if ev.Name != "watch.epoch" {
			continue
		}
		n++
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.6f\t%.6f\t%d\t%d\t%s\t\n",
			attrInt(ev, "epoch"), attrInt(ev, "sources"), attrInt(ev, "died"),
			attrInt(ev, "dropped"), attrInt(ev, "degraded"), attrInt(ev, "recovered"),
			attrInt(ev, "drifted"), attrInt(ev, "arrived"), attrInt(ev, "cons_dropped"),
			attrFloat(ev, "q_before"), attrFloat(ev, "q_after"),
			attrInt(ev, "warm_evals"), attrInt(ev, "cold_evals"), attrStr(ev, "status"))
	}
	if n == 0 {
		return fmt.Errorf("no watch.epoch events (not a watch trace?)")
	}
	return tw.Flush()
}

// convRun accumulates one solver run's iteration stream.
type convRun struct {
	sid                 int64
	solver              string
	iters               int
	firstQ, bestQ       float64
	itersToBest         int
	doneEvals           int64
	doneStatus          string
	haveIter, haveFirst bool
}

// writeConvergence summarizes each solver run's Q trajectory: iterations,
// starting and best Q, how many iterations the best took to reach, and the
// evaluator spend reported by solver.done. Runs are keyed by the enclosing
// span id, so nested solves (partition groups, watch epochs) stay separate;
// pre-span traces fall into one sid-0 bucket per solver.done boundary.
func writeConvergence(w io.Writer, evs []telemetry.Event) error {
	var runs []*convRun
	bySID := map[int64]*convRun{}
	get := func(sid int64) *convRun {
		r := bySID[sid]
		if r == nil {
			r = &convRun{sid: sid}
			bySID[sid] = r
			runs = append(runs, r)
		}
		return r
	}
	for _, ev := range evs {
		switch ev.Name {
		case "solver.iter":
			r := get(ev.SID)
			r.iters++
			r.haveIter = true
			if r.solver == "" {
				r.solver = attrStr(ev, "solver")
			}
			best := attrFloat(ev, "best_q")
			if !r.haveFirst {
				r.firstQ, r.haveFirst = best, true
			}
			if best > r.bestQ {
				r.bestQ = best
				r.itersToBest = r.iters
			}
		case "solver.done":
			r := get(ev.SID)
			if r.solver == "" {
				r.solver = attrStr(ev, "solver")
			}
			r.doneEvals = attrInt(ev, "evals")
			r.doneStatus = attrStr(ev, "status")
			if !r.haveIter {
				r.bestQ = attrFloat(ev, "best_q")
			}
			// A sid-0 stream has no span boundaries: close the bucket at
			// solver.done so the next run starts fresh.
			if ev.SID == 0 {
				delete(bySID, int64(0))
			}
		}
	}
	if len(runs) == 0 {
		return fmt.Errorf("no solver.iter/solver.done events (not a solve trace?)")
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "run\tsolver\titers\tq_first\tq_best\titers_to_best\tevals\tstatus\t")
	for i, r := range runs {
		fmt.Fprintf(tw, "%d\t%s\t%d\t%.6f\t%.6f\t%d\t%d\t%s\t\n",
			i+1, r.solver, r.iters, r.firstQ, r.bestQ, r.itersToBest, r.doneEvals, r.doneStatus)
	}
	return tw.Flush()
}

// profileScopes flattens a trace's phase profile into scoped metrics: per
// phase path, cumulative/self nanoseconds plus span and event counts; final
// Q per phase rides along as informational context.
func profileScopes(evs []telemetry.Event) map[string]map[string]float64 {
	scopes := make(map[string]map[string]float64)
	for _, st := range telemetry.Profile(telemetry.BuildTree(evs)) {
		m := map[string]float64{
			"cum_ns":  float64(st.CumNS),
			"self_ns": float64(st.SelfNS),
			"spans":   float64(st.Count),
			"events":  float64(st.Events),
		}
		if st.HasQ {
			m["q_last"] = st.QLast
		}
		scopes[st.Path] = m
	}
	return scopes
}

func runCompare(w io.Writer, oldPath, newPath string) (int, error) {
	oldEvs, err := loadTrace(oldPath)
	if err != nil {
		return 0, err
	}
	newEvs, err := loadTrace(newPath)
	if err != nil {
		return 0, err
	}
	oldScopes, newScopes := profileScopes(oldEvs), profileScopes(newEvs)
	rows, regressions := compareScopes(oldScopes, newScopes)
	if len(rows) == 0 {
		return 0, fmt.Errorf("no common phases between %s and %s", oldPath, newPath)
	}
	if err := renderCompare(w, rows, regressions); err != nil {
		return 0, err
	}
	// Phases appearing or disappearing are a structural change worth naming
	// even when no shared metric moved.
	var gained, lost []string
	for p := range newScopes {
		if _, ok := oldScopes[p]; !ok {
			gained = append(gained, p)
		}
	}
	for p := range oldScopes {
		if _, ok := newScopes[p]; !ok {
			lost = append(lost, p)
		}
	}
	sort.Strings(gained)
	sort.Strings(lost)
	if len(gained) > 0 {
		fmt.Fprintf(w, "\nphases only in %s: %s\n", newPath, strings.Join(gained, ", "))
	}
	if len(lost) > 0 {
		fmt.Fprintf(w, "phases only in %s: %s\n", oldPath, strings.Join(lost, ", "))
	}
	return regressions, nil
}
