package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"mube/internal/match"
	"mube/internal/opt"
	"mube/internal/qef"
	"mube/internal/schema"
	"mube/internal/session"
	"mube/internal/source"
	"mube/internal/strutil"
	"mube/internal/telemetry"
)

// sessionFlags are the flags shared by solve and interactive.
type sessionFlags struct {
	universe *string
	m        *int
	theta    *float64
	beta     *int
	solver   *string
	seed     *int64
	evals    *int
	weights  *string
	require  *string
	sim      *string
	spec     *string
}

// register installs the shared flags on fs.
func registerSessionFlags(fs *flag.FlagSet) *sessionFlags {
	return &sessionFlags{
		universe: fs.String("u", "universe.json", "universe file"),
		m:        fs.Int("m", 20, "maximum number of sources to select"),
		theta:    fs.Float64("theta", match.DefaultTheta, "matching threshold θ"),
		beta:     fs.Int("beta", match.DefaultBeta, "minimum GA size β"),
		solver:   fs.String("solver", "tabu", "solver: tabu|sls|anneal|pso|random|exhaustive"),
		seed:     fs.Int64("seed", 1, "solver seed"),
		evals:    fs.Int("evals", 3000, "objective evaluation budget"),
		weights:  fs.String("weights", "", "QEF weights, e.g. match=0.3,card=0.3,coverage=0.2,redundancy=0.1,mttf=0.1"),
		require:  fs.String("require", "", "comma-separated source IDs to require"),
		sim:      fs.String("sim", "", "similarity measure (default 3gram-jaccard)"),
		spec:     fs.String("spec", "", "load a saved session spec (overrides the other problem flags)"),
	}
}

// buildSession assembles a session from the flags.
func (sf *sessionFlags) buildSession() (*session.Session, *source.Universe, error) {
	u, err := loadUniverse(*sf.universe)
	if err != nil {
		return nil, nil, err
	}
	if *sf.spec != "" {
		f, err := os.Open(*sf.spec)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		s, err := session.LoadSpec(f, session.Config{Universe: u})
		if err != nil {
			return nil, nil, err
		}
		return s, u, nil
	}
	mcfg := match.Config{Theta: *sf.theta, Beta: *sf.beta}
	if *sf.sim != "" {
		mcfg.Similarity = strutil.ByName(*sf.sim)
		if mcfg.Similarity == nil {
			return nil, nil, fmt.Errorf("unknown similarity measure %q", *sf.sim)
		}
	}
	cfg := session.Config{
		Universe:      u,
		Match:         mcfg,
		MaxSources:    *sf.m,
		Solver:        *sf.solver,
		SolverOptions: opt.Options{Seed: *sf.seed, MaxEvals: *sf.evals},
	}
	s, err := session.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	if *sf.weights != "" {
		w, err := parseWeights(*sf.weights)
		if err != nil {
			return nil, nil, err
		}
		if err := s.SetWeights(w); err != nil {
			return nil, nil, err
		}
	}
	if *sf.require != "" {
		for _, part := range strings.Split(*sf.require, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return nil, nil, fmt.Errorf("bad source id %q", part)
			}
			if err := s.RequireSource(schema.SourceID(id)); err != nil {
				return nil, nil, err
			}
		}
	}
	return s, u, nil
}

// cmdSolve runs one optimization and prints the solution.
func cmdSolve(args []string) error {
	fs := flag.NewFlagSet("solve", flag.ExitOnError)
	sf := registerSessionFlags(fs)
	report := fs.String("report", "", "also write a JSON report to this file")
	timeout := fs.Duration("timeout", 0, "wall-clock solve deadline (0 = none); on expiry the best-so-far solution is printed with status \"deadline\"")
	trace := fs.String("trace", "", "write a JSONL solver trace to this file (overrides a loaded spec's recorded path)")
	metrics := fs.Bool("metrics", false, "print a telemetry metrics summary after the solution")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /spans, and pprof on this address, e.g. localhost:6060 (\"\" = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, u, err := sf.buildSession()
	if err != nil {
		return err
	}
	tel, err := attachTelemetry(s, *trace, *metrics, *debugAddr)
	if err != nil {
		return err
	}
	if tel.rec != nil {
		printSolveHeader(os.Stdout, s, tel.path)
	}
	if tel.srv != nil {
		fmt.Printf("debug: /metrics, /spans, and pprof on http://%s/\n", tel.srv.Addr())
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if _, err := s.SolveContext(ctx); err != nil {
		_ = tel.close()
		return err
	}
	printSolution(os.Stdout, u, s.Last())
	if *report != "" {
		if err := writeFile(*report, s.WriteReport); err != nil {
			_ = tel.close()
			return err
		}
	}
	if *metrics {
		fmt.Println()
		if err := telemetry.WriteSummary(os.Stdout, tel.rec.Snapshot()); err != nil {
			_ = tel.close()
			return err
		}
	}
	return tel.close()
}

// solveTelemetry bundles the optional recorder wiring for cmdSolve: the
// recorder injected into the session, and — when tracing — the sink and file
// it streams to.
type solveTelemetry struct {
	rec  *telemetry.Recorder
	sink *telemetry.JSONLSink
	file *os.File
	path string
	srv  *telemetry.Server
}

// openTraceFile opens the JSONL trace file for writing, creating any missing
// parent directories first. Errors name the offending path so a failed
// -trace flag reads as "trace out/dir/t.jsonl: ..." rather than a bare
// syscall message.
func openTraceFile(path string, appendMode bool) (*os.File, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("trace %s: %w", path, err)
		}
	}
	mode := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if appendMode {
		mode = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	f, err := os.OpenFile(path, mode, 0o644)
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", path, err)
	}
	return f, nil
}

// attachTelemetry wires a recorder into the session when tracing, metrics,
// or the live debug endpoint were requested (all off → no-op wiring, zero
// overhead in the core). flagPath overrides a trace path loaded from a saved
// spec; a spec-inherited path is opened in append mode so a resumed
// exploration keeps extending one trace file, while an explicit -trace flag
// truncates. With debugAddr the same event stream tees into a span ring
// served on /spans alongside /metrics and pprof.
func attachTelemetry(s *session.Session, flagPath string, metrics bool, debugAddr string) (*solveTelemetry, error) {
	path, appendMode := flagPath, false
	if path == "" {
		path = s.Spec().TracePath
		appendMode = path != ""
	}
	if path == "" && !metrics && debugAddr == "" {
		return &solveTelemetry{}, nil
	}
	tel := &solveTelemetry{path: path}
	var sinks []telemetry.Sink
	if path != "" {
		f, err := openTraceFile(path, appendMode)
		if err != nil {
			return nil, err
		}
		tel.file = f
		tel.sink = telemetry.NewJSONLSink(f)
		sinks = append(sinks, tel.sink)
	}
	var ring *telemetry.SpanRing
	if debugAddr != "" {
		ring = telemetry.NewSpanRing()
		sinks = append(sinks, ring)
	}
	tel.rec = telemetry.New(telemetry.Tee(sinks...))
	if debugAddr != "" {
		srv, err := telemetry.Serve(debugAddr, tel.rec, ring)
		if err != nil {
			if tel.file != nil {
				_ = tel.file.Close()
			}
			return nil, err
		}
		tel.srv = srv
	}
	s.Instrument(tel.rec, path)
	return tel, nil
}

// close stops the debug server, flushes the trace file, and surfaces any
// deferred sink write error.
func (tel *solveTelemetry) close() error {
	if tel.srv != nil {
		_ = tel.srv.Close()
	}
	if tel.file == nil {
		return nil
	}
	if err := tel.sink.Err(); err != nil {
		_ = tel.file.Close()
		return fmt.Errorf("trace %s: %w", tel.path, err)
	}
	return tel.file.Close()
}

// printSolveHeader prints the shared run header (only when telemetry is on,
// so default solve output is unchanged).
func printSolveHeader(w io.Writer, s *session.Session, tracePath string) {
	spec := s.Spec()
	tr := tracePath
	if tr == "" {
		tr = "off"
	}
	fmt.Fprintln(w, telemetry.Header("mube solve",
		telemetry.KVStr("solver", spec.Solver),
		telemetry.KVStr("seed", strconv.FormatInt(spec.SolverOptions.Seed, 10)),
		telemetry.KVInt("evals", spec.SolverOptions.MaxEvals),
		telemetry.KVStr("trace", tr),
	))
}

// printSolution renders one iteration's solution for the terminal.
func printSolution(w io.Writer, u *source.Universe, it *session.Iteration) {
	sol := it.Solution
	status := ""
	if sol.Status != "" && sol.Status != opt.StatusCompleted {
		status = ", " + string(sol.Status)
	}
	fmt.Fprintf(w, "iteration %d [%s, %.0f ms, %d evals%s]\n",
		it.Index, sol.Solver, float64(it.Elapsed.Microseconds())/1000, sol.Evals, status)
	fmt.Fprintf(w, "overall quality Q(S) = %.4f\n", sol.Quality)
	for _, name := range sortedKeys(sol.Breakdown) {
		fmt.Fprintf(w, "  %-12s %.4f\n", name+":", sol.Breakdown[name])
	}
	fmt.Fprintf(w, "sources (%d):\n", len(sol.IDs))
	for _, id := range sol.IDs {
		s := u.Source(id)
		fmt.Fprintf(w, "  [%3d] %-18s %s\n", id, s.Name, s.Schema)
	}
	if !sol.MatchOK {
		fmt.Fprintln(w, "mediated schema: (no valid matching at this threshold)")
		return
	}
	fmt.Fprintf(w, "mediated schema (%d GAs):\n", sol.Schema.Len())
	for i, g := range sol.Schema.GAs {
		fmt.Fprintf(w, "  GA%-2d (q=%.2f):", i, sol.GAQuality[i])
		for _, r := range g.Refs() {
			fmt.Fprintf(w, " s%d:%s", r.Source, u.AttrName(r))
		}
		fmt.Fprintln(w)
	}
}

// parseWeights parses "name=v,name=v" into Weights.
func parseWeights(s string) (qef.Weights, error) {
	w := qef.Weights{}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || strings.TrimSpace(kv[0]) == "" {
			return nil, fmt.Errorf("bad weight %q (want name=value)", part)
		}
		v, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			return nil, fmt.Errorf("bad weight value %q", kv[1])
		}
		w[strings.TrimSpace(kv[0])] = v
	}
	return w, nil
}

// sortedKeys returns the map's keys sorted.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
