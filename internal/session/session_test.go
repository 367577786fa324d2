package session

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"math"
	"slices"
	"testing"
	"time"

	"mube/internal/constraint"
	"mube/internal/fault"
	"mube/internal/match"
	"mube/internal/opt"
	"mube/internal/probe"
	"mube/internal/qef"
	"mube/internal/schema"
	"mube/internal/telemetry"
	"mube/internal/testutil"
)

// TestSessionTelemetry covers the session-level telemetry wiring: a
// configured recorder sees the solve span and evaluator metrics, the trace
// path survives a spec save/load round-trip, a Config.TracePath overrides the
// persisted one, and Instrument swaps the recorder live.
func TestSessionTelemetry(t *testing.T) {
	u := testutil.BooksUniverse(t)
	sink := &telemetry.MemorySink{}
	s, err := New(Config{
		Universe:      u,
		MaxSources:    3,
		Recorder:      telemetry.New(sink),
		TracePath:     "run.jsonl",
		SolverOptions: opt.Options{Seed: 1, MaxEvals: 200, MaxIters: 30, Patience: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	evs := sink.Events()
	if len(evs) < 2 || evs[0].Name != "session.solve.begin" || evs[len(evs)-1].Name != "session.solve.end" {
		t.Fatalf("solve span missing: %d events, first %q", len(evs), evs[0].Name)
	}

	var buf bytes.Buffer
	if err := s.SaveSpec(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	loaded, err := LoadSpec(bytes.NewReader(saved), Config{Universe: u})
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Spec().TracePath; got != "run.jsonl" {
		t.Errorf("trace path after round-trip = %q, want run.jsonl", got)
	}
	over, err := LoadSpec(bytes.NewReader(saved), Config{Universe: u, TracePath: "other.jsonl"})
	if err != nil {
		t.Fatal(err)
	}
	if got := over.Spec().TracePath; got != "other.jsonl" {
		t.Errorf("config trace path did not override: %q", got)
	}

	// Instrument replaces the recorder for subsequent solves and updates the
	// recorded path; a nil recorder turns telemetry off.
	s.Instrument(nil, "")
	if got := s.Spec().TracePath; got != "" {
		t.Errorf("Instrument(nil) left trace path %q", got)
	}
	n := len(sink.Events())
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.Events()); got != n {
		t.Errorf("detached sink still received events: %d -> %d", n, got)
	}
}

func newSession(t *testing.T) *Session {
	t.Helper()
	s, err := New(Config{
		Universe:      testutil.BooksUniverse(t),
		MaxSources:    4,
		SolverOptions: opt.Options{Seed: 1, MaxEvals: 300, MaxIters: 60, Patience: 15},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewDefaults(t *testing.T) {
	s := newSession(t)
	spec := s.Spec()
	if spec.Solver != "tabu" {
		t.Errorf("default solver = %q", spec.Solver)
	}
	if spec.Theta == 0 || spec.Beta == 0 {
		t.Errorf("matching defaults not applied: %+v", spec)
	}
	// The fixture defines mttf, so the default QEF set has 5 entries.
	if len(s.QEFs()) != 5 {
		t.Errorf("QEFs = %d, want 5", len(s.QEFs()))
	}
	if err := spec.Weights.Validate(s.QEFs()); err != nil {
		t.Errorf("default weights invalid: %v", err)
	}
}

func TestNewRejectsBad(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil universe accepted")
	}
	u := testutil.BooksUniverse(t)
	if _, err := New(Config{Universe: u, Solver: "nope"}); err == nil {
		t.Error("unknown solver accepted")
	}
	if _, err := New(Config{Universe: u, MaxSources: 99}); err == nil {
		t.Error("MaxSources > N accepted")
	}
	if _, err := New(Config{Universe: u, Weights: qef.Weights{"match": 1}}); err == nil {
		t.Error("bad weights accepted")
	}
}

func TestSolveRecordsHistory(t *testing.T) {
	s := newSession(t)
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Quality <= 0 {
		t.Errorf("quality = %v", sol.Quality)
	}
	if len(s.History()) != 1 || s.Last() == nil {
		t.Fatalf("history not recorded")
	}
	it := s.Last()
	if it.Index != 0 || it.Solution != sol || it.Elapsed <= 0 {
		t.Errorf("iteration record = %+v", it)
	}
	// Second iteration appends.
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if len(s.History()) != 2 || s.Last().Index != 1 {
		t.Errorf("second iteration not recorded")
	}
}

func TestIterativeRefinementLoop(t *testing.T) {
	// The canonical µBE loop: solve, pin a GA from the output, require one
	// of the chosen sources, re-solve; the new solution must honor both.
	s := newSession(t)
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !sol.MatchOK || sol.Schema.Len() == 0 {
		t.Fatal("first iteration produced no schema")
	}
	pinned := sol.Schema.GAs[0]
	if err := s.PinSolutionGA(0, 0); err != nil {
		t.Fatal(err)
	}
	keep := sol.IDs[0]
	if err := s.RequireSource(keep); err != nil {
		t.Fatal(err)
	}

	sol2, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range sol2.IDs {
		if id == keep {
			found = true
		}
	}
	if !found {
		t.Errorf("required source %d missing from %v", keep, sol2.IDs)
	}
	if sol2.MatchOK && !sol2.Schema.Subsumes(schema.NewMediated(pinned)) {
		t.Error("pinned GA not subsumed by new schema")
	}
}

func TestPinSolutionGABounds(t *testing.T) {
	s := newSession(t)
	if err := s.PinSolutionGA(0, 0); err == nil {
		t.Error("pin before any iteration accepted")
	}
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if err := s.PinSolutionGA(0, 999); err == nil {
		t.Error("GA index out of range accepted")
	}
	if err := s.PinSolutionGA(5, 0); err == nil {
		t.Error("iteration out of range accepted")
	}
}

// TestSetWeightDeterministic moves one weight on 200 fresh sessions opened
// with the paper's default weights: every session must end with the same
// weight vector, bit for bit. Summing the other weights in map order gave
// two vectors that differed in the last bit of three weights.
func TestSetWeightDeterministic(t *testing.T) {
	var want map[string]uint64
	for i := 0; i < 200; i++ {
		s, err := New(Config{Universe: testutil.BooksUniverse(t), Weights: qef.PaperDefaults()})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetWeight("mttf", 0.3); err != nil {
			t.Fatal(err)
		}
		got := make(map[string]uint64)
		for name, v := range s.Spec().Weights {
			got[name] = math.Float64bits(v)
		}
		if want == nil {
			want = got
		} else if !maps.Equal(got, want) {
			t.Fatalf("session %d: weight bits %v, first session %v", i, got, want)
		}
	}
}

func TestSetWeightRebalances(t *testing.T) {
	s := newSession(t)
	if err := s.SetWeight(qef.NameCardinality, 0.6); err != nil {
		t.Fatal(err)
	}
	w := s.Spec().Weights
	if math.Abs(w[qef.NameCardinality]-0.6) > 1e-12 {
		t.Errorf("card weight = %v", w[qef.NameCardinality])
	}
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v after SetWeight", sum)
	}
	if err := s.SetWeight("unknown", 0.1); err == nil {
		t.Error("unknown QEF accepted")
	}
	if err := s.SetWeight(qef.NameCardinality, 1.5); err == nil {
		t.Error("weight > 1 accepted")
	}
	// Setting to 1 zeroes the rest.
	if err := s.SetWeight(qef.NameCardinality, 1); err != nil {
		t.Fatal(err)
	}
	for name, v := range s.Spec().Weights {
		if name != qef.NameCardinality && v != 0 {
			t.Errorf("weight %s = %v, want 0", name, v)
		}
	}
	// And back down from the degenerate state.
	if err := s.SetWeight(qef.NameCardinality, 0.5); err != nil {
		t.Fatal(err)
	}
	sum = 0
	for _, v := range s.Spec().Weights {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v after recovering from degenerate state", sum)
	}
}

// TestProblemReusesMatcher: Problem returns the same matcher, and so the same
// shard index, across solves while θ, β and the linkage keep their exact
// bits, and a new one after SetTheta or SetBeta moves them. Every call still
// emits its match.index span. A θ round trip, with the solver's seed and
// start pinned, solves bit-identically to the first solve.
func TestProblemReusesMatcher(t *testing.T) {
	sink := &telemetry.MemorySink{}
	s, err := New(Config{
		Universe:   testutil.BooksUniverse(t),
		MaxSources: 4,
		Recorder:   telemetry.New(sink),
		SolverOptions: opt.Options{Seed: 1, MaxEvals: 300, MaxIters: 60, Patience: 15,
			Initial: []schema.SourceID{0, 1, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	problems := 0
	matcher := func() *match.Matcher {
		t.Helper()
		p, err := s.Problem()
		if err != nil {
			t.Fatal(err)
		}
		problems++
		return p.Matcher
	}
	solve := func() *opt.Solution {
		t.Helper()
		sol, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		problems++
		return sol
	}

	m0 := matcher()
	first := solve()
	if matcher() != m0 {
		t.Error("Problem re-parameterized the matcher across a solve with θ, β and linkage unchanged")
	}
	theta := s.Spec().Theta
	if err := s.SetTheta(theta); err != nil {
		t.Fatal(err)
	}
	if matcher() != m0 {
		t.Error("SetTheta to the same θ re-parameterized the matcher")
	}
	if err := s.SetTheta(theta + 0.1); err != nil {
		t.Fatal(err)
	}
	m1 := matcher()
	if m1 == m0 {
		t.Error("SetTheta kept the matcher of the old θ")
	}
	solve()
	if err := s.SetTheta(theta); err != nil {
		t.Fatal(err)
	}
	m2 := matcher()
	if m2 == m1 {
		t.Error("the θ round trip kept the matcher of the moved θ")
	}
	again := solve()
	if math.Float64bits(again.Quality) != math.Float64bits(first.Quality) || !slices.Equal(again.IDs, first.IDs) {
		t.Errorf("θ round trip solved %v at %v, first solve %v at %v", again.IDs, again.Quality, first.IDs, first.Quality)
	}
	if err := s.SetBeta(s.Spec().Beta + 1); err != nil {
		t.Fatal(err)
	}
	if matcher() == m2 {
		t.Error("SetBeta kept the matcher of the old β")
	}

	spans := 0
	for _, ev := range sink.Events() {
		if ev.Name == "match.index.begin" {
			spans++
		}
	}
	if spans != problems {
		t.Errorf("%d match.index spans for %d Problem calls", spans, problems)
	}
}

func TestSettersValidate(t *testing.T) {
	s := newSession(t)
	if err := s.SetTheta(0.8); err != nil {
		t.Errorf("SetTheta: %v", err)
	}
	if !testutil.AlmostEqual(s.Spec().Theta, 0.8) {
		t.Error("theta not applied")
	}
	if err := s.SetTheta(2); err == nil {
		t.Error("theta out of range accepted")
	}
	if err := s.SetBeta(3); err != nil {
		t.Errorf("SetBeta: %v", err)
	}
	if err := s.SetBeta(-1); err == nil {
		t.Error("negative beta accepted")
	}
	if err := s.SetMaxSources(2); err != nil {
		t.Errorf("SetMaxSources: %v", err)
	}
	if err := s.SetMaxSources(0); err == nil {
		t.Error("MaxSources 0 accepted")
	}
	if s.Spec().MaxSources != 2 {
		t.Error("failed SetMaxSources mutated spec")
	}
	if err := s.SetSolver("anneal"); err != nil {
		t.Errorf("SetSolver: %v", err)
	}
	if err := s.SetSolver("nope"); err == nil {
		t.Error("unknown solver accepted")
	}
}

func TestRequireAndDropSource(t *testing.T) {
	s := newSession(t)
	if err := s.RequireSource(3); err != nil {
		t.Fatal(err)
	}
	if err := s.RequireSource(3); err != nil {
		t.Fatal("idempotent RequireSource failed")
	}
	if got := s.Spec().Constraints.Sources; len(got) != 1 || got[0] != 3 {
		t.Errorf("constraints = %v", got)
	}
	// Requiring more sources than MaxSources fails and rolls back.
	if err := s.SetMaxSources(1); err != nil {
		t.Fatal(err)
	}
	if err := s.RequireSource(5); err == nil {
		t.Error("over-constrained RequireSource accepted")
	}
	if len(s.Spec().Constraints.Sources) != 1 {
		t.Error("failed RequireSource mutated constraints")
	}
	s.DropSourceConstraint(3)
	if len(s.Spec().Constraints.Sources) != 0 {
		t.Error("DropSourceConstraint failed")
	}
	s.ClearConstraints()
	if !s.Spec().Constraints.Empty() {
		t.Error("ClearConstraints failed")
	}
}

func TestPinGAValidates(t *testing.T) {
	s := newSession(t)
	bad := schema.NewGA(
		schema.AttrRef{Source: 0, Attr: 0},
		schema.AttrRef{Source: 0, Attr: 1},
	)
	if err := s.PinGA(bad); err == nil {
		t.Error("invalid GA accepted")
	}
	good := schema.NewGA(
		schema.AttrRef{Source: 0, Attr: 0},
		schema.AttrRef{Source: 1, Attr: 0},
	)
	if err := s.PinGA(good); err != nil {
		t.Errorf("valid GA rejected: %v", err)
	}
}

func TestReportRoundTrip(t *testing.T) {
	s := newSession(t)
	if err := s.RequireSource(2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.UniverseSize != 12 || len(rep.Iterations) != 1 {
		t.Errorf("report = %+v", rep)
	}
	ir := rep.Iterations[0]
	if ir.Solver != "tabu" || ir.Quality <= 0 || len(ir.Sources) == 0 {
		t.Errorf("iteration report = %+v", ir)
	}
	if len(ir.Constraints.Sources) != 1 || ir.Constraints.Sources[0] != 2 {
		t.Errorf("constraint report = %+v", ir.Constraints)
	}
	if ir.ElapsedMS <= 0 {
		t.Error("elapsed not recorded")
	}
	if len(ir.Schema) == 0 {
		t.Error("schema missing from report")
	}
}

func TestSpecCloneIsolation(t *testing.T) {
	s := newSession(t)
	spec := s.Spec()
	spec.Weights[qef.NameCardinality] = 0.9
	spec.Constraints.Sources = append(spec.Constraints.Sources, 1)
	if testutil.AlmostEqual(s.Spec().Weights[qef.NameCardinality], 0.9) {
		t.Error("Spec() shares weights")
	}
	if len(s.Spec().Constraints.Sources) != 0 {
		t.Error("Spec() shares constraints")
	}
}

func TestWarmStartAcrossIterations(t *testing.T) {
	// Re-solving the same spec warm-starts from the previous solution, so
	// quality never regresses across iterations of an unchanged problem.
	s := newSession(t)
	first, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		next, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if next.Quality+1e-9 < first.Quality {
			t.Fatalf("iteration %d regressed: %.4f < %.4f", i+2, next.Quality, first.Quality)
		}
		first = next
	}
}

func TestSpecSaveLoadRoundTrip(t *testing.T) {
	s := newSession(t)
	if err := s.SetWeight(qef.NameCardinality, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTheta(0.6); err != nil {
		t.Fatal(err)
	}
	if err := s.SetBeta(3); err != nil {
		t.Fatal(err)
	}
	if err := s.RequireSource(4); err != nil {
		t.Fatal(err)
	}
	if err := s.PinGA(schema.NewGA(
		schema.AttrRef{Source: 0, Attr: 0},
		schema.AttrRef{Source: 1, Attr: 0},
	)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetSolver("anneal"); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := s.SaveSpec(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSpec(&buf, Config{Universe: s.Universe()})
	if err != nil {
		t.Fatal(err)
	}
	got, want := loaded.Spec(), s.Spec()
	if !testutil.AlmostEqual(got.Theta, want.Theta) || got.Beta != want.Beta || got.MaxSources != want.MaxSources ||
		got.Solver != want.Solver || got.Linkage != want.Linkage {
		t.Errorf("spec mismatch: %+v vs %+v", got, want)
	}
	for name, v := range want.Weights {
		if !testutil.AlmostEqual(got.Weights[name], v) {
			t.Errorf("weight %s = %v, want %v", name, got.Weights[name], v)
		}
	}
	if len(got.Constraints.Sources) != 1 || got.Constraints.Sources[0] != 4 {
		t.Errorf("source constraints = %v", got.Constraints.Sources)
	}
	if len(got.Constraints.GAs) != 1 || !got.Constraints.GAs[0].Equal(want.Constraints.GAs[0]) {
		t.Errorf("GA constraints = %v", got.Constraints.GAs)
	}
	// The loaded session solves.
	if _, err := loaded.Solve(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadSpecRejectsBad(t *testing.T) {
	u := testutil.BooksUniverse(t)
	if _, err := LoadSpec(bytes.NewBufferString("{bad"), Config{Universe: u}); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := LoadSpec(bytes.NewBufferString(`{"theta":0.5,"beta":2,"max_sources":4,"solver":"tabu","linkage":"diag"}`), Config{Universe: u}); err == nil {
		t.Error("unknown linkage accepted")
	}
	// Constraint referencing a source outside the universe.
	if _, err := LoadSpec(bytes.NewBufferString(`{"theta":0.5,"beta":2,"max_sources":4,"solver":"tabu","source_constraints":[99]}`), Config{Universe: u}); err == nil {
		t.Error("stale constraints accepted")
	}
}

// TestSpecRoundTripWithDegradedUniverse runs the full robustness loop: the
// fixture universe is re-acquired under a total-failure fault plan (every
// cooperative source degrades to uncooperative), the session is created over
// the degraded universe with its health report, and the spec must survive a
// save/load round-trip with the health intact — so a resumed exploration
// still knows which sources were misbehaving when the spec was written.
func TestSpecRoundTripWithDegradedUniverse(t *testing.T) {
	u := testutil.BooksUniverse(t)
	inj := fault.NewInjector(fault.Plan{Seed: 6, Rate: 1, HandshakeFrac: 1e-12})
	du, health, _, err := probe.New(probe.Policy{}, nil, inj, 1).ReprobeUniverse(u)
	if err != nil {
		t.Fatal(err)
	}
	if health.Degraded == 0 || du.Len() != u.Len() {
		t.Fatalf("fixture not degraded as expected: %s", health)
	}

	s, err := New(Config{
		Universe:      du,
		MaxSources:    4,
		Health:        health,
		SolverOptions: opt.Options{Seed: 1, MaxEvals: 300, MaxIters: 60, Patience: 15},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Spec().Health; got == nil || got.Degraded != health.Degraded {
		t.Fatalf("spec health = %+v, want the acquisition report", got)
	}

	// A fully degraded universe still solves: data QEFs score zero, schema
	// QEFs keep working (§4's fallback).
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != opt.StatusCompleted && sol.Status != opt.StatusExhausted {
		t.Errorf("degraded solve status = %q", sol.Status)
	}

	var buf bytes.Buffer
	if err := s.SaveSpec(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSpec(&buf, Config{Universe: du})
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Spec().Health
	if got == nil {
		t.Fatal("health report lost in save/load round-trip")
	}
	if got.Plan != health.Plan || got.Degraded != health.Degraded || len(got.Sources) != len(health.Sources) {
		t.Errorf("health round-trip mismatch: %s vs %s", got, health)
	}
	// Mutating the loaded report must not reach back into the session spec.
	got.Sources[0].Name = "mutated"
	if loaded.Spec().Health.Sources[0].Name == "mutated" {
		t.Error("Spec() leaked its health report by reference")
	}
}

// TestSolveContextCancellation: a session solve under a dead context still
// records an iteration, and the report carries the canceled status.
func TestSolveContextCancellation(t *testing.T) {
	s := newSession(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := s.SolveContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != opt.StatusCanceled {
		t.Errorf("status = %q, want %q", sol.Status, opt.StatusCanceled)
	}
	rep := s.BuildReport()
	if len(rep.Iterations) != 1 || rep.Iterations[0].Status != string(opt.StatusCanceled) {
		t.Errorf("report iteration status = %+v", rep.Iterations)
	}
}

// TestInjectedClock pins iteration timing to a fake clock: with time
// injected, Elapsed is exactly the interval the clock hands out, so session
// timing is testable without sleeping and the deterministic core never
// touches time.Now (mube-vet's determinism analyzer enforces the latter).
func TestInjectedClock(t *testing.T) {
	base := time.Unix(1700000000, 0)
	calls := 0
	s, err := New(Config{
		Universe: testutil.BooksUniverse(t),
		Clock: func() time.Time {
			calls++
			return base.Add(time.Duration(calls) * 250 * time.Millisecond)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("clock consulted %d times per Solve, want 2", calls)
	}
	if got := s.Last().Elapsed; got != 250*time.Millisecond {
		t.Errorf("Elapsed = %v, want the injected clock's 250ms", got)
	}
}

// TestSpecRemapSources is the regression test for carrying a spec across a
// universe compaction (ReprobeUniverse / Universe.Remove): constraints must
// follow their sources to the new IDs, constraints on a dropped source must
// fail with the named error (never silently bind to whichever source
// inherited the stale index), and the warm-start hint is filtered, not
// rejected.
func TestSpecRemapSources(t *testing.T) {
	s := newSession(t)
	if err := s.RequireSource(3); err != nil {
		t.Fatal(err)
	}
	spec := s.Spec()
	spec.SolverOptions.Initial = []schema.SourceID{1, 3}
	spec.Constraints.GAs = []schema.GA{schema.NewGA(
		schema.AttrRef{Source: 2, Attr: 0},
		schema.AttrRef{Source: 3, Attr: 0},
	)}

	// Source 1 died; 0,2,3,… survive with compacted IDs.
	kept := make([]schema.SourceID, 0, s.Universe().Len()-1)
	for id := 0; id < s.Universe().Len(); id++ {
		if id != 1 {
			kept = append(kept, schema.SourceID(id))
		}
	}
	out, err := spec.RemapSources(kept)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Constraints.Sources) != 1 || out.Constraints.Sources[0] != 2 {
		t.Errorf("source constraint remapped to %v, want [2]", out.Constraints.Sources)
	}
	wantGA := schema.NewGA(
		schema.AttrRef{Source: 1, Attr: 0},
		schema.AttrRef{Source: 2, Attr: 0},
	)
	if !out.Constraints.GAs[0].Equal(wantGA) {
		t.Errorf("GA constraint remapped to %v, want %v", out.Constraints.GAs[0], wantGA)
	}
	if got := out.SolverOptions.Initial; len(got) != 1 || got[0] != 2 {
		t.Errorf("Initial remapped to %v, want [2] (dropped member filtered)", got)
	}

	// Constraining the dropped source itself must be a named error: after
	// compaction the stale ID 3 would be a valid index pointing at source 4.
	spec2 := s.Spec()
	kept2 := make([]schema.SourceID, 0, s.Universe().Len()-1)
	for id := 0; id < s.Universe().Len(); id++ {
		if id != 3 {
			kept2 = append(kept2, schema.SourceID(id))
		}
	}
	if _, err := spec2.RemapSources(kept2); !errors.Is(err, constraint.ErrConstraintDropped) {
		t.Errorf("RemapSources with dropped constrained source = %v, want ErrConstraintDropped", err)
	}
}
