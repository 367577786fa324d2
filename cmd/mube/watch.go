package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"mube/internal/fault"
	"mube/internal/match"
	"mube/internal/opt"
	"mube/internal/source"
	"mube/internal/synth"
	"mube/internal/telemetry"
	"mube/internal/watch"
)

// cmdWatch runs the online-integration loop: epochs of seeded churn over a
// universe, with incremental updates and warm-started re-solves.
func cmdWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	universe := fs.String("u", "", "universe file (default: generate one with -gen)")
	gen := fs.Int("gen", 100, "with no -u: generate this many synthetic sources")
	scale := fs.Float64("scale", 0.01, "with no -u: data scale factor for generation and arrivals")
	epochs := fs.Int("epochs", 20, "number of churn epochs")
	churn := fs.Float64("churn", 0.1, "expected fraction of sources touched per epoch (deaths + drift)")
	seed := fs.Int64("seed", 1, "churn-schedule and solver seed")
	m := fs.Int("m", 20, "maximum number of sources to select")
	theta := fs.Float64("theta", match.DefaultTheta, "matching threshold θ")
	solver := fs.String("solver", "tabu", "solver: tabu|sls|anneal|pso|random|exhaustive")
	evals := fs.Int("evals", 3000, "objective evaluation budget per epoch")
	faultRate := fs.Float64("fault-rate", 0, "per-attempt probe failure probability during reprobe")
	cold := fs.Bool("cold", false, "also run the rebuild+cold-solve reference each epoch (differential mode)")
	delta := fs.Bool("delta", false, "restrict warm re-solves to the carried solution plus the epoch's touched sources")
	trace := fs.String("trace", "", "write the per-epoch JSONL watch trace to this file")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /spans, and pprof on this address, e.g. localhost:6060 (\"\" = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var u *source.Universe
	arrivals := synth.Scaled(*scale)
	if *universe != "" {
		var err error
		if u, err = loadUniverse(*universe); err != nil {
			return err
		}
		arrivals.Sig = u.SignatureConfig()
	} else {
		cfg := arrivals
		cfg.NumSources = *gen
		cfg.Seed = *seed
		var err error
		if u, err = synth.GenerateUniverse(cfg); err != nil {
			return err
		}
	}

	cfg := watch.Config{
		Universe:   u,
		Epochs:     *epochs,
		Seed:       *seed,
		ChurnRate:  *churn,
		Arrivals:   arrivals,
		Match:      match.Config{Theta: *theta},
		MaxSources: *m,
		Solver:     *solver,
		Options:    opt.Options{MaxEvals: *evals},
		Cold:       *cold,
		DeltaPool:  *delta,
	}
	if *faultRate > 0 {
		cfg.Faults = fault.Plan{Rate: *faultRate, HandshakeFrac: 0.3}
	}

	var sink *telemetry.JSONLSink
	var traceFile *os.File
	var ring *telemetry.SpanRing
	if *debugAddr != "" {
		ring = telemetry.NewSpanRing()
	}
	if *trace != "" || ring != nil {
		var sinks []telemetry.Sink
		if *trace != "" {
			f, err := openTraceFile(*trace, false)
			if err != nil {
				return err
			}
			traceFile = f
			sink = telemetry.NewJSONLSink(f)
			sinks = append(sinks, sink)
		}
		if ring != nil {
			sinks = append(sinks, ring)
		}
		// Share the loop's virtual clock so epoch events carry virtual t_ns
		// (the /spans ring reports virtual durations for the same reason).
		clk := fault.NewVirtualClock(time.Unix(0, 0).UTC())
		cfg.Clock = clk
		cfg.Recorder = telemetry.NewClocked(telemetry.Tee(sinks...), clk)
		// Keep per-iteration solver events out of the epoch trace.
		cfg.Options.Recorder = telemetry.New(nil)
	}
	if ring != nil {
		// /metrics serves the solver-side recorder: that is where the
		// counters live (eval.calls, solver.iters, pcsa.merges); the epoch
		// recorder only carries spans, which /spans reads from the ring.
		srv, err := telemetry.Serve(*debugAddr, cfg.Options.Recorder, ring)
		if err != nil {
			if traceFile != nil {
				_ = traceFile.Close()
			}
			return err
		}
		defer srv.Close()
		fmt.Printf("debug: /metrics, /spans, and pprof on http://%s/\n", srv.Addr())
	}

	l, err := watch.New(cfg)
	if err != nil {
		return err
	}
	fmt.Println(telemetry.Header("mube watch",
		telemetry.KVInt("sources", u.Len()),
		telemetry.KVInt("epochs", *epochs),
		telemetry.KVStr("churn", fmt.Sprintf("%g", *churn)),
		telemetry.KVStr("solver", *solver),
	))
	reports, err := l.Run(context.Background())
	if err != nil {
		return err
	}
	baseQ := reports[0].QAfter
	for _, r := range reports {
		fmt.Println(r.String())
	}
	last := reports[len(reports)-1]
	fmt.Printf("\nbaseline q=%.6f final q=%.6f recovery=%.3f after %d epochs\n",
		baseQ, last.QAfter, last.QRecovery(baseQ), l.Epoch())
	if traceFile != nil {
		if err := sink.Err(); err != nil {
			_ = traceFile.Close()
			return fmt.Errorf("trace %s: %w", *trace, err)
		}
		if err := traceFile.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d epoch events to %s\n", len(reports), *trace)
	}
	return nil
}
