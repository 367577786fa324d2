// Command perfbench is the repository's benchmark: three closed-loop
// workloads with one simulated client each, run on one core (GOMAXPROCS=1,
// sequential evaluation, sequential partition groups). Every op's output is
// checked. Run from the root of a checkout:
//
//	bash perfbench/run.sh --workload session-700 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs the
// workload untraced and then traced, and prints per-layer metrics read from
// outside the program: the benchmark's own timing of public calls, plus the
// spans and counters the program emits to a recorder built with
// telemetry.NewClocked over a wall clock. The last line of standard output
// is one JSON object with the keys correct, attempted, failed and metrics;
// the lines before it record the environment and the run's stationarity.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"mube/internal/telemetry"
)

// phase is one measured stretch of a workload: its set-ups, then ops for a
// fixed time.
type phase struct {
	setupS []float64
	latMS  []float64
	cpu    time.Duration
	// refMS and setupRefMS are reference kernel times taken between ops and
	// around set-ups.
	refMS, setupRefMS []float64
	qs                []float64 // best Q of the first qOps ops (NaN for a failed op)
	failed            int
	peakRSSMB         float64
	rssAtOp           int
	// setup and ops hold the benchmark-timed calls of the last set-up and
	// of the ops.
	setup, ops *meter
	facts      map[string]float64
	// mem0 is read after set-up, mem1 at the end of the ops; live0 and
	// live1 are the live heap after a forced collection at those points.
	mem0, mem1   runtime.MemStats
	live0, live1 float64
	snap0, snap1 telemetry.Snapshot
}

func (p *phase) attempted() int { return len(p.latMS) }

// runPhase sets w up nSetups times, keeps the last instance and runs its ops
// until at least seconds have passed and at least w.qOps ops are done. A
// non-nil tracer records every set-up and op.
func runPhase(ctx context.Context, w *workload, seed int64, seconds float64, nSetups int, tr *tracer) (*phase, error) {
	var rec *telemetry.Recorder
	if tr != nil {
		rec = tr.rec
	}
	m := newMeter()
	ph := &phase{}
	ref := newRefKernel()
	var inst instance
	for k := 0; k < nSetups; k++ {
		inst = nil
		m.reset()
		runtime.GC()
		ph.setupRefMS = append(ph.setupRefMS, ref.run())
		t0 := time.Now()
		in, err := w.setup(ctx, seed, rec, m)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		ph.setupS = append(ph.setupS, time.Since(t0).Seconds())
		ph.setupRefMS = append(ph.setupRefMS, ref.run())
		inst = in
	}
	ph.setup = m.clone()
	m.reset()
	ph.ops = m
	if tr != nil {
		tr.discard()
	}
	ph.live0 = liveHeapMB()
	runtime.ReadMemStats(&ph.mem0)
	ph.snap0 = rec.Snapshot()

	ph.refMS = append(ph.refMS, ref.run())
	lastRef := time.Now()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < w.qOps || time.Now().Before(deadline); i++ {
		c0 := cpuTime()
		t0 := time.Now()
		err := inst.op(ctx, i)
		lat := time.Since(t0)
		ph.cpu += cpuTime() - c0
		ph.latMS = append(ph.latMS, ms(lat))
		if tr != nil {
			tr.collect()
		}
		q := math.NaN()
		if err == nil {
			q, err = inst.check(i)
		}
		if err != nil {
			ph.failed++
			if ph.failed <= 5 {
				fmt.Fprintf(os.Stderr, "%s op %d: %v\n", w.name, i, err)
			}
		}
		if i < w.qOps {
			ph.qs = append(ph.qs, q)
		}
		if time.Since(lastRef) > refEvery {
			ph.refMS = append(ph.refMS, ref.run())
			lastRef = time.Now()
		}
		if i+1 == w.rssOps {
			ph.peakRSSMB, ph.rssAtOp = readPeakRSS(), i+1
		}
	}
	if ph.rssAtOp == 0 {
		ph.peakRSSMB, ph.rssAtOp = readPeakRSS(), ph.attempted()
	}
	runtime.ReadMemStats(&ph.mem1)
	ph.snap1 = rec.Snapshot()
	ph.live1 = liveHeapMB()
	facts, err := inst.facts()
	if err != nil {
		return nil, fmt.Errorf("%s facts: %w", w.name, err)
	}
	ph.facts = facts
	return ph, nil
}

func readPeakRSS() float64 {
	v, err := peakRSSMB()
	if err != nil {
		fmt.Fprintln(os.Stderr, "peak rss:", err)
	}
	return v
}

// liveHeapMB collects garbage and returns the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / (1 << 20)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (ms metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	ms[name] = metric{Value: v, Unit: unit}
}

// qMean is the mean best Q over the phase's first qOps ops; NaN when one of
// them failed.
func (p *phase) qMean() float64 { return mean(p.qs) }

// unscaled are the phase's times as measured.
func (p *phase) unscaled() map[string]float64 {
	return map[string]float64{
		"setup_s":       quantile(p.setupS, 0.5),
		"op_ms_p50":     band(p.latMS, 0.5),
		"op_ms_p90":     band(p.latMS, 0.9),
		"cpu_ms_per_op": ms(p.cpu) / float64(p.attempted()),
	}
}

// endToEnd are the metrics a user of the system sees, from an untraced
// phase, with times scaled to the reference speed (see reference.go):
// set-up by the kernel times taken around the set-ups, the ops by those
// taken between them.
func endToEnd(p *phase) metrics {
	scale := refNominalMS / quantile(p.refMS, 0.5)
	raw := p.unscaled()
	out := metrics{}
	out.set("setup_s", raw["setup_s"]*refNominalMS/quantile(p.setupRefMS, 0.5), "s")
	out.set("op_ms_p50", raw["op_ms_p50"]*scale, "ms")
	out.set("op_ms_p90", raw["op_ms_p90"]*scale, "ms")
	out.set("cpu_ms_per_op", raw["cpu_ms_per_op"]*scale, "ms")
	out.set("peak_rss_mb", p.peakRSSMB, "MB")
	out.set("q_mean", p.qMean(), "Q")
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer splits the traced phase's op time into layers; plain is the
// untraced phase run just before it, for the tracing overhead.
func perLayer(w *workload, plain, traced *phase, tr *tracer) metrics {
	ops := float64(traced.attempted())
	count := func(name string) float64 {
		return float64(traced.snap1.Counter(name) - traced.snap0.Counter(name))
	}
	spanMS := func(ns map[string]int64, name string) float64 { return float64(ns[name]) / 1e6 / ops }
	// Layers called once per op are timed there; the others only in set-up.
	callMS := func(layer string) float64 {
		if traced.ops.calls[layer] > 0 {
			return traced.ops.meanMS(layer)
		}
		return traced.setup.meanMS(layer)
	}
	evals := count("eval.computed")
	out := metrics{}
	out.set("synth.gen_ms", callMS("synth.gen"), "ms")
	out.set("match.build_ms", callMS("match.build"), "ms")
	out.set("match.names", traced.facts["match.names"], "count")
	out.set("match.shard_ms", traced.ops.meanMS("match.shard"), "ms")
	out.set("match.pair_candidates", traced.ops.count["match.pair_candidates"]/ops, "count")
	out.set("match.index_ms", spanMS(tr.cumNS, "match.index"), "ms")
	out.set("opt.evals_per_op", evals/ops, "count")
	out.set("opt.evals_per_s", ratio(evals, float64(tr.cumNS["solver.run"])/1e9), "1/s")
	out.set("opt.memo_hit_rate", ratio(count("eval.memo_hits"), count("eval.calls")), "frac")
	out.set("opt.delta_hit_rate", ratio(count("eval.delta_hits"), evals), "frac")
	out.set("pcsa.merges_per_eval", ratio(count("pcsa.merges"), evals), "count")
	out.set("pcsa.counting_merges_per_eval", ratio(count("pcsa.counting_merges"), evals), "count")
	out.set("source.sig_mb", traced.facts["source.sig_mb"], "MB")
	out.set("solver.run_ms", spanMS(tr.cumNS, "solver.run"), "ms")
	out.set("partition.groups", float64(tr.spans["partition.group"])/ops, "count")
	out.set("partition.group_ms", spanMS(tr.cumNS, "partition.group"), "ms")
	out.set("partition.refine_ms", spanMS(tr.cumNS, "partition.refine"), "ms")
	out.set("session.edit_ms", traced.ops.meanMS("session.edit"), "ms")
	out.set("session.solve_ms", traced.ops.meanMS("session.solve"), "ms")
	out.set("session.problem_ms", spanMS(tr.cumNS, "session.problem"), "ms")
	out.set("watch.churn_ms", spanMS(tr.selfNS, "watch.churn"), "ms")
	out.set("watch.reprobe_ms", spanMS(tr.selfNS, "watch.reprobe"), "ms")
	out.set("watch.resolve_self_ms", spanMS(tr.selfNS, "watch.resolve"), "ms")
	out.set("probe.attempts_per_op", count("probe.attempts")/ops, "count")
	out.set("probe.retries_per_op", count("probe.retries")/ops, "count")
	out.set("go.gc_per_op", float64(traced.mem1.NumGC-traced.mem0.NumGC)/ops, "count")
	out.set("go.alloc_mb_per_op", float64(traced.mem1.TotalAlloc-traced.mem0.TotalAlloc)/(1<<20)/ops, "MB")
	out.set("go.heap_mb_end", float64(traced.mem1.HeapAlloc)/(1<<20), "MB")
	// Both phases' p50s are scaled to the reference speed, so a change in the
	// host's speed between the two halves of the run does not show as
	// overhead.
	out.set("trace.overhead_frac", ratio(endToEnd(traced)["op_ms_p50"].Value, endToEnd(plain)["op_ms_p50"].Value)-1, "frac")
	opNS, attributed := 0.0, float64(tr.attributedNS)
	for _, l := range traced.latMS {
		opNS += l * 1e6
	}
	for _, layer := range w.attrClocks {
		attributed += float64(traced.ops.ns[layer].Nanoseconds())
	}
	out.set("unattributed_frac", ratio(opNS-attributed, opNS), "frac")
	return out
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "encode:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func main() {
	name := flag.String("workload", "", "workload: session-700, churn-700 or ladder-50k")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "how long the ops are measured")
	trace := flag.Int("trace", 0, "1 = untraced then traced run, printing per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(1)
	steal0, err := stealSeconds()
	if err != nil {
		return err
	}
	start := time.Now()
	ctx := context.Background()

	var phases []*phase
	var out metrics
	correct := true
	if !traced {
		p, err := runPhase(ctx, w, seed, seconds, w.setups, nil)
		if err != nil {
			return err
		}
		phases, out = []*phase{p}, endToEnd(p)
	} else {
		plain, err := runPhase(ctx, w, seed, seconds/2, 1, nil)
		if err != nil {
			return err
		}
		tr := newTracer(w.attrSpans)
		tp, err := runPhase(ctx, w, seed, seconds/2, 1, tr)
		if err != nil {
			return err
		}
		phases, out = []*phase{plain, tp}, perLayer(w, plain, tp, tr)
		// The trace must not change what the program computes.
		if qa, qb := plain.qMean(), tp.qMean(); math.Float64bits(qa) != math.Float64bits(qb) {
			fmt.Fprintf(os.Stderr, "%s: q_mean %v untraced, %v traced\n", w.name, qa, qb)
			correct = false
		}
	}
	steal1, err := stealSeconds()
	if err != nil {
		return err
	}

	rep := report{Metrics: out}
	for _, p := range phases {
		rep.Attempted += p.attempted()
		rep.Failed += p.failed
	}
	rep.Correct = correct && rep.Failed == 0
	first := phases[0]
	n := first.attempted()
	p90 := quantile(first.latMS, 0.9)
	beyond := 0
	for _, l := range first.latMS {
		if l > p90 {
			beyond++
		}
	}
	printJSON(map[string]any{"env": map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"steal_s":    steal1 - steal0,
		"wall_s":     time.Since(start).Seconds(),
	}})
	printJSON(map[string]any{"run": map[string]any{
		"ops":            n,
		"ops_beyond_p90": beyond,
		"fail_frac":      ratio(float64(rep.Failed), float64(rep.Attempted)),
		"q_ops":          w.qOps,
		"rss_at_op":      first.rssAtOp,
		"setup_s":        first.setupS,
		"ref_ms":         quantile(first.refMS, 0.5),
		"unscaled":       first.unscaled(),
	}})
	// Stationarity: op time early vs late in the run, and how the live heap
	// grows per op (churn-700's process memory grows with epochs).
	q := n / 4
	printJSON(map[string]any{"stationarity": map[string]any{
		"ops":                n,
		"op_ms_p50_first_q":  quantile(first.latMS[:q], 0.5),
		"op_ms_p50_last_q":   quantile(first.latMS[n-q:], 0.5),
		"live_heap_mb_start": first.live0,
		"live_heap_mb_end":   first.live1,
		"heap_mb_per_op":     (first.live1 - first.live0) / float64(n),
	}})
	printJSON(rep)
	return nil
}
