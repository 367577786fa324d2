package watch

import (
	"bytes"
	"context"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mube/internal/constraint"
	"mube/internal/fault"
	"mube/internal/opt"
	"mube/internal/pcsa"
	"mube/internal/probe"
	"mube/internal/schema"
	"mube/internal/source"
	"mube/internal/synth"
	"mube/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_trace.jsonl")

// tinyArrivals is the arrival stream shape shared by every watch test: a
// reduced-scale Books universe whose signature config matches tinyUniverse.
func tinyArrivals() synth.Config {
	cfg := synth.Scaled(0.002)
	cfg.Sig = pcsa.Config{NumMaps: 64}
	return cfg
}

// tinyUniverse generates a small synthetic epoch-0 world. Each call returns a
// fresh universe — the loop mutates it in place.
func tinyUniverse(t testing.TB, n int, seed int64) *source.Universe {
	t.Helper()
	cfg := tinyArrivals()
	cfg.NumSources = n
	cfg.Seed = seed
	u, err := synth.GenerateUniverse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// goldenConfig is the fixed churn scenario the golden trace was recorded
// from: 14 sources, 50 epochs at 20% churn under a flapping fault plan.
func goldenConfig(t testing.TB, workers int) Config {
	return Config{
		Universe:   tinyUniverse(t, 14, 5),
		Epochs:     50,
		Seed:       7,
		ChurnRate:  0.2,
		Arrivals:   tinyArrivals(),
		MaxSources: 5,
		Solver:     "tabu",
		Options: opt.Options{
			MaxEvals: 150,
			MaxIters: 6,
			Patience: 3,
			Parallel: workers,
			// Keep solver events out of the watch trace: the golden file
			// pins watch.epoch lines only.
			Recorder: telemetry.New(nil),
		},
		Probe:  probe.Policy{MaxAttempts: 3, BreakerLimit: 2},
		Faults: fault.Plan{Rate: 0.3, HandshakeFrac: 0.3, Latency: 50 * time.Millisecond, FlapPeriod: 6 * time.Hour, FlapDuty: 0.15},
	}
}

// goldenRun executes the golden scenario and returns its JSONL trace bytes.
func goldenRun(t *testing.T, workers int) ([]byte, []DeltaReport) {
	t.Helper()
	var buf bytes.Buffer
	sink := telemetry.NewJSONLSink(&buf)
	clk := fault.NewVirtualClock(time.Unix(0, 0).UTC())
	cfg := goldenConfig(t, workers)
	cfg.Clock = clk
	cfg.Recorder = telemetry.NewClocked(sink, clk)
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := l.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if len(reports) != cfg.Epochs+1 {
		t.Fatalf("got %d reports, want %d", len(reports), cfg.Epochs+1)
	}
	return buf.Bytes(), reports
}

// TestGoldenChurnTrace pins the 50-epoch churn run byte for byte: the same
// Config must reproduce the checked-in DeltaReport trace exactly, at one
// evaluator worker and at four. Any intentional change to the schedule, the
// event attributes, or float formatting must regenerate the golden file with
// `go test ./internal/watch -run GoldenChurnTrace -update` and show up in
// review.
func TestGoldenChurnTrace(t *testing.T) {
	got, reports := goldenRun(t, 1)
	golden := filepath.Join("testdata", "golden_trace.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace diverged from golden (run with -update if intentional)\ngot:\n%s\nwant:\n%s", got, want)
	}
	if par, _ := goldenRun(t, 4); !bytes.Equal(par, want) {
		t.Errorf("trace at 4 workers diverged from golden\ngot:\n%s", par)
	}

	// The run must actually exercise churn: over 50 epochs at 20% some
	// sources die, some degrade, and arrivals replace the dead.
	var died, degraded, arrived int
	for _, r := range reports {
		died += r.Died + r.Dropped
		degraded += r.Degraded
		arrived += r.Arrived
	}
	if died == 0 || arrived == 0 {
		t.Errorf("golden scenario saw no deaths (%d) or arrivals (%d); churn not exercised", died, arrived)
	}
	if degraded == 0 {
		t.Errorf("golden scenario saw no degradations; fault plan not exercised")
	}
}

// TestRunDeterministicAcrossRuns re-runs the golden scenario from scratch and
// requires the full report slice — floats included — to be identical.
func TestRunDeterministicAcrossRuns(t *testing.T) {
	_, a := goldenRun(t, 1)
	_, b := goldenRun(t, 1)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("reports differ across identical runs:\n%v\nvs\n%v", a, b)
	}
}

// TestWarmMatchesColdDifferential is the incremental-correctness check: with
// the exhaustive solver, the warm re-solve over the incrementally-updated
// universe must land on exactly the same best quality as a from-scratch
// rebuild + cold solve of the same epoch — bit for bit. Any drift between
// Remove/UpdateSynopsis/Add + Rebind and the rebuilt world shows up here.
func TestWarmMatchesColdDifferential(t *testing.T) {
	cfg := Config{
		Universe:   tinyUniverse(t, 8, 11),
		Epochs:     6,
		Seed:       3,
		ChurnRate:  0.3,
		Arrivals:   tinyArrivals(),
		MaxSources: 3,
		Solver:     "exhaustive",
		Cold:       true,
		Probe:      probe.Policy{MaxAttempts: 3, BreakerLimit: 2},
		Faults:     fault.Plan{Rate: 0.2, HandshakeFrac: 0.5, FlapPeriod: 8 * time.Hour, FlapDuty: 0.25},
	}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := l.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	baseQ := reports[0].QAfter
	for _, r := range reports {
		//mube:vet-ignore floatcmp — the differential contract is bit-identical, not approximate
		if math.Float64bits(r.QAfter) != math.Float64bits(r.ColdQ) {
			t.Errorf("epoch %d: warm q=%v != cold q=%v (incremental universe diverged from rebuild)",
				r.Epoch, r.QAfter, r.ColdQ)
		}
		if r.ColdEvals == 0 || r.WarmEvals == 0 {
			t.Errorf("epoch %d: missing eval counts: warm=%d cold=%d", r.Epoch, r.WarmEvals, r.ColdEvals)
		}
		if rec := r.QRecovery(baseQ); rec < 0 || rec > 1 {
			t.Errorf("epoch %d: QRecovery = %v out of [0,1]", r.Epoch, rec)
		}
	}
}

// TestChurnSoak hammers the loop at high churn with a parallel evaluator —
// the -race soak target. The invariants are structural: the universe never
// empties, IDs stay dense, the warm re-solve never lands below the carried
// solution it started from, the virtual clock advances by at least one
// epochStep per tick, and the recovery cache names only live degraded
// sources.
func TestChurnSoak(t *testing.T) {
	epochs := 40
	if testing.Short() {
		epochs = 8
	}
	cfg := Config{
		Universe:   tinyUniverse(t, 12, 17),
		Epochs:     epochs,
		Seed:       13,
		ChurnRate:  0.4,
		Arrivals:   tinyArrivals(),
		MaxSources: 4,
		Options:    opt.Options{MaxEvals: 120, MaxIters: 5, Patience: 3, Parallel: 4},
		Probe:      probe.Policy{MaxAttempts: 2, BreakerLimit: 2},
		Faults:     fault.Plan{Rate: 0.25, HandshakeFrac: 0.6, Latency: 20 * time.Millisecond, FlapPeriod: 3 * time.Hour, FlapDuty: 0.3},
		Constraints: constraint.Set{
			Sources: []schema.SourceID{0, 1},
		},
	}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := l.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if l.Epoch() != epochs {
		t.Errorf("Epoch() = %d, want %d", l.Epoch(), epochs)
	}
	dropped := 0
	for _, r := range reports {
		if r.Sources <= 0 {
			t.Fatalf("epoch %d: universe emptied", r.Epoch)
		}
		if r.QAfter < r.QBefore {
			t.Errorf("epoch %d: warm solve q=%v below its own start %v", r.Epoch, r.QAfter, r.QBefore)
		}
		dropped += r.ConstraintsDropped
	}
	// Constraints either survived (remapped to live IDs) or were dropped and
	// counted; the carried set must still validate against the final world.
	if got := dropped + len(l.cons.Sources); got != 2 {
		t.Errorf("dropped(%d) + surviving(%d) constraints = %d, want 2", dropped, len(l.cons.Sources), got)
	}
	if err := l.cons.Validate(l.u); err != nil {
		t.Errorf("carried constraints invalid on final universe: %v", err)
	}
	// IDs must be dense after all the Remove compactions.
	for i, s := range l.u.Sources() {
		if int(s.ID) != i {
			t.Fatalf("non-dense ID after churn: sources[%d].ID = %d", i, s.ID)
		}
	}
	if min := time.Unix(0, 0).UTC().Add(time.Duration(epochs) * epochStep); l.Clock().Now().Before(min) {
		t.Errorf("virtual clock %v did not advance past %v", l.Clock().Now(), min)
	}
	// The recovery cache holds only sources that are alive and degraded: a
	// dead source's synopses must not outlive it.
	live := make(map[string]*source.Source, l.u.Len())
	for _, s := range l.u.Sources() {
		live[s.Name] = s
	}
	for name := range l.pristine {
		if s, ok := live[name]; !ok || s.Cooperative() {
			t.Errorf("pristine cache holds %q, which is not a live degraded source", name)
		}
	}
}

// TestDeltaPoolSavesEvals runs the golden scenario in delta-pool mode with
// the cold reference alongside: the warm re-solves must spend under half the
// cold evals in total while holding quality near the full-pool result.
func TestDeltaPoolSavesEvals(t *testing.T) {
	cfg := goldenConfig(t, 1)
	cfg.Epochs = 12
	cfg.Cold = true
	cfg.DeltaPool = true
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := l.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var warm, cold int
	for _, r := range reports[1:] {
		warm += r.WarmEvals
		cold += r.ColdEvals
		if r.QAfter < r.QBefore {
			t.Errorf("epoch %d: delta-pool solve q=%v below its start %v", r.Epoch, r.QAfter, r.QBefore)
		}
		if r.QAfter < 0.8*r.ColdQ {
			t.Errorf("epoch %d: delta-pool q=%v collapsed vs cold %v", r.Epoch, r.QAfter, r.ColdQ)
		}
	}
	if cold == 0 || float64(warm) >= 0.5*float64(cold) {
		t.Errorf("warm evals %d not under half of cold %d (frac %.3f)", warm, cold, float64(warm)/float64(cold))
	}
}

// TestRunHonorsContext cancels between epochs and expects a truncated report
// slice plus the context error.
func TestRunHonorsContext(t *testing.T) {
	cfg := goldenConfig(t, 1)
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reports, err := l.Run(ctx)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(reports) != 1 {
		t.Errorf("got %d reports after immediate cancel, want just the baseline", len(reports))
	}
}

// TestNewValidation exercises every Config rejection path.
func TestNewValidation(t *testing.T) {
	u := tinyUniverse(t, 4, 2)
	base := Config{Universe: u, Epochs: 3, Arrivals: tinyArrivals()}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil universe", func(c *Config) { c.Universe = nil }},
		{"zero epochs", func(c *Config) { c.Epochs = 0 }},
		{"negative churn", func(c *Config) { c.ChurnRate = -0.1 }},
		{"churn above one", func(c *Config) { c.ChurnRate = 1.5 }},
		{"unknown solver", func(c *Config) { c.Solver = "annealing-deluxe" }},
		{"mismatched arrival sig", func(c *Config) { c.Arrivals.Sig = pcsa.Config{NumMaps: 128} }},
		{"constraint out of range", func(c *Config) {
			c.Constraints = constraint.Set{Sources: []schema.SourceID{99}}
		}},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := New(base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestDeltaReportMath unit-checks the two derived ratios.
func TestDeltaReportMath(t *testing.T) {
	r := DeltaReport{QBefore: 0.4, QAfter: 0.55, WarmEvals: 30, ColdEvals: 120}
	if got := r.QRecovery(0.6); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("QRecovery = %v, want 0.75", got)
	}
	if got := r.QRecovery(0.4); math.Float64bits(got) != math.Float64bits(1) {
		t.Errorf("QRecovery with nothing lost = %v, want 1", got)
	}
	if got := r.QRecovery(2.0); got < 0 || got > 1 {
		t.Errorf("QRecovery not clamped: %v", got)
	}
	if got := r.WarmFrac(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("WarmFrac = %v, want 0.25", got)
	}
	if got := (DeltaReport{WarmEvals: 5}).WarmFrac(); got != 0 {
		t.Errorf("WarmFrac without cold reference = %v, want 0", got)
	}
	if s := r.String(); s == "" {
		t.Error("empty String()")
	}
}
