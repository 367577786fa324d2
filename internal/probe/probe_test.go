package probe

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"mube/internal/fault"
	"mube/internal/pcsa"
	"mube/internal/schema"
	"mube/internal/source"
)

var testCfg = pcsa.Config{NumMaps: 64}

// sliceIter iterates a fixed tuple slice.
type sliceIter struct {
	tuples []source.TupleID
	i      int
}

func (it *sliceIter) Next() (source.TupleID, bool) {
	if it.i >= len(it.tuples) {
		return 0, false
	}
	t := it.tuples[it.i]
	it.i++
	return t, true
}

// candidates builds n probeable candidates with distinct tuple sets.
func candidates(n int) []Candidate {
	cands := make([]Candidate, n)
	for i := 0; i < n; i++ {
		tuples := make([]source.TupleID, 50)
		for j := range tuples {
			tuples[j] = source.TupleID(i*1000 + j)
		}
		cands[i] = Candidate{
			Name:            fmt.Sprintf("src-%03d", i),
			Schema:          schema.NewSchema("title", "year"),
			Characteristics: []source.Characteristic{{Name: "freshness", Value: float64(i)}},
			Open:            func() source.TupleIterator { return &sliceIter{tuples: tuples} },
		}
	}
	return cands
}

func TestProbeCleanNetwork(t *testing.T) {
	p := New(Policy{}, nil, nil, 1)
	u, rep, err := p.BuildUniverse(testCfg, candidates(5))
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 5 || rep.Healthy != 5 || rep.Degraded != 0 || rep.Dropped != 0 {
		t.Fatalf("clean build: len=%d report=%s", u.Len(), rep)
	}
	if rep.Probed != 5 || rep.Plan != "none" {
		t.Errorf("report probed=%d plan=%q, want 5, none", rep.Probed, rep.Plan)
	}
	for i, s := range u.Sources() {
		if !s.Cooperative() || s.Cardinality != 50 {
			t.Errorf("source %d: cooperative=%v cardinality=%d, want cooperative with 50 tuples",
				i, s.Cooperative(), s.Cardinality)
		}
		if rep.Sources[i].Attempts != 1 || rep.Sources[i].ID != s.ID {
			t.Errorf("source %d result = %+v", i, rep.Sources[i])
		}
	}
}

func TestSchemaOnlyCandidateJoinsWithoutProbe(t *testing.T) {
	p := New(Policy{}, nil, nil, 1)
	cands := []Candidate{{Name: "shy", Schema: schema.NewSchema("a")}} // Open == nil
	u, rep, err := p.BuildUniverse(testCfg, cands)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 1 || rep.Probed != 0 || rep.Healthy != 1 {
		t.Fatalf("schema-only build: len=%d report=%s", u.Len(), rep)
	}
	if s := u.Source(0); s.Cooperative() {
		t.Error("schema-only candidate joined as cooperative")
	}
}

// TestProbeDegradesNeverDrops: every attempt fails mid-stream (the source
// answers, then the scan dies), so the breaker never trips and the source is
// degraded to uncooperative rather than excluded.
func TestProbeDegradesNeverDrops(t *testing.T) {
	// HandshakeFrac ≈ 0 forces every injected failure to be a stream fault.
	inj := fault.NewInjector(fault.Plan{Seed: 2, Rate: 1, HandshakeFrac: 1e-12})
	p := New(Policy{}, nil, inj, 1)
	u, rep, err := p.BuildUniverse(testCfg, candidates(10))
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 10 {
		t.Fatalf("universe len = %d, want all 10 kept", u.Len())
	}
	if rep.Degraded != 10 || rep.Dropped != 0 {
		t.Fatalf("report = %s, want 10 degraded, 0 dropped", rep)
	}
	for _, s := range u.Sources() {
		if s.Cooperative() {
			t.Errorf("source %s still cooperative after degradation", s.Name)
		}
		if s.Characteristics == nil {
			t.Errorf("source %s lost its characteristics", s.Name)
		}
	}
	for _, r := range rep.Sources {
		if r.Attempts != 4 || r.Retries != 3 || r.Err == "" {
			t.Errorf("degraded result = %+v, want 4 attempts with an error", r)
		}
	}
	if got := rep.DegradedNames(); len(got) != 10 {
		t.Errorf("DegradedNames() = %v", got)
	}
}

// TestBreakerDropsSilentSource: every attempt fails at the handshake, so the
// breaker trips at BreakerLimit and the source is excluded.
func TestBreakerDropsSilentSource(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Seed: 2, Rate: 1, HandshakeFrac: 1})
	p := New(Policy{BreakerLimit: 3}, nil, inj, 1)
	u, rep, err := p.BuildUniverse(testCfg, candidates(4))
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 0 || rep.Dropped != 4 {
		t.Fatalf("silent build: len=%d report=%s, want all dropped", u.Len(), rep)
	}
	for _, r := range rep.Sources {
		if r.Attempts != 3 || r.ID != -1 || r.Status != StatusDropped {
			t.Errorf("dropped result = %+v, want breaker at attempt 3, ID -1", r)
		}
	}
	if got := rep.DroppedNames(); len(got) != 4 {
		t.Errorf("DroppedNames() = %v", got)
	}
}

// TestDeadlineDoesNotTripBreaker: a deadline overrun is not evidence the
// source vanished — it must degrade, never drop.
func TestDeadlineDoesNotTripBreaker(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Seed: 3, Latency: 1e9}) // ≈1s per attempt
	p := New(Policy{ProbeTimeout: 1}, nil, inj, 1)              // 1ns deadline: every attempt overruns
	s, res := p.Probe(candidates(1)[0], testCfg)
	if res.Status != StatusDegraded || s == nil {
		t.Fatalf("deadline-only probe: status=%s source=%v, want degraded schema-only source", res.Status, s)
	}
	if s.Cooperative() {
		t.Error("deadline-degraded source still cooperative")
	}
}

// TestBuildUniverseAtHighFailureRate is the acceptance scenario: at a 30%
// per-attempt failure rate, construction completes, nothing is lost unless
// the breaker tripped, and the report partitions every candidate.
func TestBuildUniverseAtHighFailureRate(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Seed: 11, Rate: 0.3})
	p := New(Policy{}, nil, inj, 1)
	cands := candidates(60)
	u, rep, err := p.BuildUniverse(testCfg, cands)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy+rep.Degraded+rep.Dropped != len(cands) {
		t.Fatalf("report does not partition candidates: %s", rep)
	}
	if u.Len() != len(cands)-rep.Dropped {
		t.Fatalf("universe len %d != candidates %d - dropped %d", u.Len(), len(cands), rep.Dropped)
	}
	if rep.Healthy == 0 {
		t.Fatal("no source survived a 30% failure rate; retry loop is broken")
	}
	// With 4 attempts, P(all fail) = 0.3^4 ≈ 0.8%: degradation must be rare.
	if rep.Degraded+rep.Dropped > len(cands)/4 {
		t.Errorf("too many casualties at rate 0.3: %s", rep)
	}
}

// TestBuildUniverseDeterminism: identical plans and seeds produce
// bit-identical universes and reports.
func TestBuildUniverseDeterminism(t *testing.T) {
	build := func() (*source.Universe, *HealthReport) {
		inj := fault.NewInjector(fault.Plan{Seed: 11, Rate: 0.3, Latency: 5e7})
		u, rep, err := New(Policy{}, nil, inj, 42).BuildUniverse(testCfg, candidates(40))
		if err != nil {
			t.Fatal(err)
		}
		return u, rep
	}
	u1, rep1 := build()
	u2, rep2 := build()
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatal("identical builds produced different health reports")
	}
	if u1.Len() != u2.Len() {
		t.Fatalf("universe lengths differ: %d vs %d", u1.Len(), u2.Len())
	}
	for i := range u1.Sources() {
		a, b := u1.Source(schema.SourceID(i)), u2.Source(schema.SourceID(i))
		if a.Name != b.Name || a.Cardinality != b.Cardinality || a.Cooperative() != b.Cooperative() {
			t.Fatalf("source %d differs: %+v vs %+v", i, a, b)
		}
	}
}

// reprobeFixture builds a clean universe of nCoop cooperative and nShy
// schema-only sources.
func reprobeFixture(t *testing.T, nCoop, nShy int) *source.Universe {
	t.Helper()
	u := source.NewUniverse(testCfg)
	for i := 0; i < nCoop; i++ {
		sig := pcsa.MustNew(testCfg)
		for j := 0; j < 30; j++ {
			sig.AddUint64(uint64(i*100 + j))
		}
		if _, err := u.Add(&source.Source{
			ID:          -1,
			Name:        fmt.Sprintf("coop-%02d", i),
			Schema:      schema.NewSchema("a", "b"),
			Cardinality: 30,
			Signature:   sig,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nShy; i++ {
		if _, err := u.Add(source.Uncooperative(fmt.Sprintf("shy-%02d", i), schema.NewSchema("a"))); err != nil {
			t.Fatal(err)
		}
	}
	return u
}

func TestReprobeUniverseDegrades(t *testing.T) {
	u := reprobeFixture(t, 6, 2)
	inj := fault.NewInjector(fault.Plan{Seed: 4, Rate: 1, HandshakeFrac: 1e-12})
	nu, rep, kept, err := New(Policy{}, nil, inj, 1).ReprobeUniverse(u)
	if err != nil {
		t.Fatal(err)
	}
	if nu.Len() != 8 || len(kept) != 8 {
		t.Fatalf("reprobe kept %d/%d sources, want all (degraded, not dropped)", nu.Len(), len(kept))
	}
	if rep.Probed != 6 || rep.Degraded != 6 || rep.Dropped != 0 || rep.Healthy != 2 {
		t.Fatalf("report = %s, want probed=6 degraded=6 healthy=2 (schema-only untouched)", rep)
	}
	for newID, oldID := range kept {
		if nu.Source(schema.SourceID(newID)).Name != u.Source(oldID).Name {
			t.Fatalf("kept[%d]=%d maps to %q, original is %q",
				newID, oldID, nu.Source(schema.SourceID(newID)).Name, u.Source(oldID).Name)
		}
	}
	for _, s := range nu.Sources() {
		if s.Cooperative() {
			t.Errorf("source %s survived a rate-1 reprobe as cooperative", s.Name)
		}
	}
	// The original universe must be untouched.
	for i := 0; i < 6; i++ {
		if !u.Source(schema.SourceID(i)).Cooperative() {
			t.Fatalf("reprobe mutated the original universe (source %d)", i)
		}
	}
}

func TestReprobeUniverseDropsAndRemaps(t *testing.T) {
	u := reprobeFixture(t, 5, 1)
	inj := fault.NewInjector(fault.Plan{Seed: 4, Rate: 1, HandshakeFrac: 1})
	nu, rep, kept, err := New(Policy{}, nil, inj, 1).ReprobeUniverse(u)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped != 5 || nu.Len() != 1 || len(kept) != 1 {
		t.Fatalf("rate-1 handshake reprobe: %s, kept=%v", rep, kept)
	}
	// The lone survivor is the schema-only source, which had oldID 5.
	if kept[0] != 5 || nu.Source(0).Name != "shy-00" {
		t.Fatalf("kept = %v, survivor = %q; want the schema-only source (oldID 5)", kept, nu.Source(0).Name)
	}
}

func TestReprobeUniverseDeterminism(t *testing.T) {
	run := func() *HealthReport {
		u := reprobeFixture(t, 20, 3)
		inj := fault.NewInjector(fault.Plan{Seed: 9, Rate: 0.35})
		_, rep, _, err := New(Policy{}, nil, inj, 7).ReprobeUniverse(u)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("identical reprobes produced different health reports")
	}
}

func TestHealthReportClone(t *testing.T) {
	var nilRep *HealthReport
	if nilRep.Clone() != nil {
		t.Error("nil.Clone() != nil")
	}
	rep := &HealthReport{Plan: "none"}
	rep.add(Result{Name: "a", Status: StatusHealthy})
	cp := rep.Clone()
	cp.Sources[0].Name = "mutated"
	if rep.Sources[0].Name != "a" {
		t.Error("Clone shares the Sources slice with the original")
	}
}

// TestBreakerResetsAcrossReprobeRounds: a source inside its flap outage trips
// the breaker and is dropped; once the outage window passes, the next reprobe
// round must start with fresh breaker state and re-admit it on the first
// attempt — consecutive-handshake counts never leak across rounds.
func TestBreakerResetsAcrossReprobeRounds(t *testing.T) {
	const period = 2 * time.Hour
	inj := fault.NewInjector(fault.Plan{Seed: 7, FlapPeriod: period, FlapDuty: 0.5})
	clock := fault.NewVirtualClock(time.Unix(0, 0))
	p := New(Policy{BreakerLimit: 2}, clock, inj, 9)

	u := reprobeFixture(t, 6, 0)
	// Find a source that is inside its outage window right now (Attempt is a
	// pure function of (name, attempt, now), so this peek perturbs nothing).
	var victim *source.Source
	for _, s := range u.Sources() {
		if inj.Attempt(s.Name, 1, clock.Now()).Handshake() {
			victim = s
			break
		}
	}
	if victim == nil {
		t.Fatal("no source down at t0; pick a different seed")
	}

	res := p.ReprobeOne(victim)
	if res.Status != StatusDropped {
		t.Fatalf("round 1: status=%s, want dropped during outage", res.Status)
	}
	if res.Attempts != 2 {
		t.Errorf("round 1 attempts = %d, want breaker trip at BreakerLimit 2", res.Attempts)
	}

	// Advance the virtual clock until the outage ends (duty 0.5 bounds the
	// wait to half a period).
	for i := 0; i < 48 && inj.Attempt(victim.Name, 1, clock.Now()).Handshake(); i++ {
		clock.Sleep(5 * time.Minute)
	}
	if inj.Attempt(victim.Name, 1, clock.Now()).Handshake() {
		t.Fatal("source never recovered within a full flap period")
	}

	res = p.ReprobeOne(victim)
	if res.Status != StatusHealthy {
		t.Fatalf("round 2: status=%s, want healthy after recovery", res.Status)
	}
	if res.Attempts != 1 || res.Retries != 0 {
		t.Errorf("round 2 took %d attempts; breaker state leaked across rounds", res.Attempts)
	}
}
