package qef

import (
	"math"
	"math/rand"
	"testing"

	"mube/internal/constraint"
	"mube/internal/match"
	"mube/internal/pcsa"
	"mube/internal/schema"
	"mube/internal/source"
	"mube/internal/testutil"
)

var sigCfg = pcsa.Config{NumMaps: 256}

// tupleRange builds a cooperative source holding tuples [lo, hi).
func tupleRange(t testing.TB, lo, hi uint64, attrs ...string) *source.Source {
	t.Helper()
	tuples := make([]source.TupleID, 0, hi-lo)
	for x := lo; x < hi; x++ {
		tuples = append(tuples, x)
	}
	s, err := source.FromTuples("s", schema.NewSchema(attrs...), source.NewSliceIterator(tuples), sigCfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// dataUniverse: three cooperative sources with controlled overlap plus one
// uncooperative source.
//
//	s0: [0, 50k)        author, title
//	s1: [25k, 75k)      author name, price   (half overlaps s0)
//	s2: [0, 50k)        writer               (identical to s0)
//	s3: uncooperative   keyword
func dataUniverse(t testing.TB) *source.Universe {
	t.Helper()
	u := source.NewUniverse(sigCfg)
	mustAdd(t, u, tupleRange(t, 0, 50000, "author", "title"))
	mustAdd(t, u, tupleRange(t, 25000, 75000, "author name", "price"))
	mustAdd(t, u, tupleRange(t, 0, 50000, "writer"))
	mustAdd(t, u, source.Uncooperative("shy", schema.NewSchema("keyword")))
	return u
}

func ids(ns ...int) []schema.SourceID {
	out := make([]schema.SourceID, len(ns))
	for i, n := range ns {
		out[i] = schema.SourceID(n)
	}
	return out
}

// ctx builds the context of sel, its union statistics from unionStats.
func ctx(t testing.TB, u *source.Universe, sel []schema.SourceID) *Context {
	t.Helper()
	c := NewContext(u, sel)
	c.Union = unionStats(t, u, sel)
	return c
}

// unionStats is the reference for Context.Union: the tallies counted source
// by source, and the estimates from pcsa.Union over the signatures of sel
// and over those of its cooperative sources alone.
func unionStats(t testing.TB, u *source.Universe, sel []schema.SourceID) UnionStats {
	t.Helper()
	var st UnionStats
	var all, coop []*pcsa.Signature
	for _, id := range sel {
		s := u.Source(id)
		if s.Signature != nil {
			all = append(all, s.Signature)
		}
		if s.Cooperative() {
			st.CoopN++
			st.CoopSum += s.Cardinality
			coop = append(coop, s.Signature)
		} else if s.Signature != nil {
			st.CoopMixed = true
		}
	}
	st.UnionEst = unionEstimate(t, all)
	st.CoopUnionEst = unionEstimate(t, coop)
	return st
}

// unionEstimate returns the estimate of pcsa.Union over sigs, 0 for none.
func unionEstimate(t testing.TB, sigs []*pcsa.Signature) float64 {
	t.Helper()
	if len(sigs) == 0 {
		return 0
	}
	un, err := pcsa.Union(sigs...)
	if err != nil {
		t.Fatal(err)
	}
	return un.Estimate()
}

func TestCardinality(t *testing.T) {
	u := dataUniverse(t)
	// Total = 150k over cooperative sources.
	got := Cardinality{}.Eval(ctx(t, u, ids(0)))
	if want := 50000.0 / 150000.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Card({s0}) = %v, want %v", got, want)
	}
	if got := (Cardinality{}).Eval(ctx(t, u, ids(0, 1, 2))); math.Abs(got-1) > 1e-12 {
		t.Errorf("Card(all coop) = %v, want 1", got)
	}
	if got := (Cardinality{}).Eval(ctx(t, u, ids(3))); got != 0 {
		t.Errorf("Card(uncooperative) = %v, want 0", got)
	}
	if got := (Cardinality{}).Eval(ctx(t, u, nil)); got != 0 {
		t.Errorf("Card(∅) = %v, want 0", got)
	}
}

// TestCardinalityMonotone checks Card(S) ≤ Card(T) for seeded random pairs
// S ⊆ T over cooperative, uncooperative and coop-mixed sources: joining a
// set never lowers its cardinality.
func TestCardinalityMonotone(t *testing.T) {
	u := dataUniverse(t)
	mixed := tupleRange(t, 40000, 90000, "isbn")
	mixed.Cardinality = -1 // signature kept, cardinality withheld
	mustAdd(t, u, mixed)
	mustAdd(t, u, tupleRange(t, 60000, 61000, "pages"))
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		var sub, super []schema.SourceID
		for _, id := range u.IDs() {
			switch r.Intn(3) {
			case 0:
				sub = append(sub, id)
				super = append(super, id)
			case 1:
				super = append(super, id)
			}
		}
		if cs, ct := (Cardinality{}).Eval(ctx(t, u, sub)), (Cardinality{}).Eval(ctx(t, u, super)); cs > ct {
			t.Fatalf("Card(%v) = %v > Card(%v) = %v", sub, cs, super, ct)
		}
	}
}

func TestCoverage(t *testing.T) {
	u := dataUniverse(t)
	// Universe distinct = [0, 75k). s0 covers 50k/75k ≈ 0.667.
	got := Coverage{}.Eval(ctx(t, u, ids(0)))
	if math.Abs(got-2.0/3.0) > 0.08 {
		t.Errorf("Coverage({s0}) = %v, want ≈0.667", got)
	}
	all := Coverage{}.Eval(ctx(t, u, ids(0, 1, 2)))
	if math.Abs(all-1) > 1e-9 {
		t.Errorf("Coverage(all coop) = %v, want 1", all)
	}
	// s2 adds nothing to s0.
	same := Coverage{}.Eval(ctx(t, u, ids(0, 2)))
	if math.Abs(same-got) > 1e-9 {
		t.Errorf("Coverage({s0,s2}) = %v, want %v (s2 duplicates s0)", same, got)
	}
	if got := (Coverage{}).Eval(ctx(t, u, ids(3))); got != 0 {
		t.Errorf("Coverage(uncooperative) = %v, want 0", got)
	}
}

func TestCoverageMonotone(t *testing.T) {
	// Adding a source never decreases coverage (signatures only gain bits).
	u := dataUniverse(t)
	prev := 0.0
	for k := 1; k <= 3; k++ {
		v := Coverage{}.Eval(ctx(t, u, ids(0, 1, 2)[:k]))
		if v+1e-12 < prev {
			t.Errorf("coverage decreased when adding source %d: %v → %v", k-1, prev, v)
		}
		prev = v
	}
}

func TestRedundancy(t *testing.T) {
	u := dataUniverse(t)
	// Single source: best possible.
	if got := (Redundancy{}).Eval(ctx(t, u, ids(0))); !testutil.AlmostEqual(got, 1) {
		t.Errorf("Redundancy({s0}) = %v, want 1", got)
	}
	// s0 and s2 are identical → worst (≈0).
	dup := Redundancy{}.Eval(ctx(t, u, ids(0, 2)))
	if dup > 0.1 {
		t.Errorf("Redundancy(identical pair) = %v, want ≈0", dup)
	}
	// s0 and s1 overlap by half: Σ|s| = 100k, |∪| = 75k, ratio = 4/3,
	// redundancy = (2 − 4/3)/1 = 2/3.
	half := Redundancy{}.Eval(ctx(t, u, ids(0, 1)))
	if math.Abs(half-2.0/3.0) > 0.08 {
		t.Errorf("Redundancy(half overlap) = %v, want ≈0.667", half)
	}
	// Disjoint synthetic pair → 1.
	u2 := source.NewUniverse(sigCfg)
	mustAdd(t, u2, tupleRange(t, 0, 30000, "a"))
	mustAdd(t, u2, tupleRange(t, 30000, 60000, "b"))
	disj := Redundancy{}.Eval(ctx(t, u2, ids(0, 1)))
	if disj < 0.9 {
		t.Errorf("Redundancy(disjoint) = %v, want ≈1", disj)
	}
	// No cooperative source → 0 (paper: uncooperative sources score 0).
	if got := (Redundancy{}).Eval(ctx(t, u, ids(3))); got != 0 {
		t.Errorf("Redundancy(uncooperative only) = %v, want 0", got)
	}
}

// TestMatchQualityQEF pins F1 to the context's input: MatchQuality returns
// the F1 the caller computed, and 0 when the caller set none.
func TestMatchQualityQEF(t *testing.T) {
	u := dataUniverse(t)
	c := ctx(t, u, ids(0, 1, 2))
	c.F1 = matchF1(t, u, c.IDs)
	if c.F1 <= 0 || c.F1 > 1 {
		t.Fatalf("match quality = %v, want (0,1]", c.F1)
	}
	if q := (MatchQuality{}).Eval(c); math.Float64bits(q) != math.Float64bits(c.F1) {
		t.Errorf("MatchQuality = %v, want the context's F1 %v", q, c.F1)
	}
	if got := (MatchQuality{}).Eval(ctx(t, u, ids(0))); got != 0 {
		t.Errorf("unset F1: MatchQuality = %v, want 0", got)
	}
}

// matchF1 returns F1(sel) on u at θ = 0.3 without constraints, as an
// evaluator would set it: the match quality, or 0 when Match(S) fails.
func matchF1(t testing.TB, u *source.Universe, sel []schema.SourceID) float64 {
	t.Helper()
	res, err := match.MustNew(u, match.Config{Theta: 0.3}).Match(sel, constraint.Set{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		return 0
	}
	return res.Quality
}

func TestWeightsValidate(t *testing.T) {
	qefs := MainQEFs()
	good := Weights{"match": 0.4, "card": 0.3, "coverage": 0.2, "redundancy": 0.1}
	if err := good.Validate(qefs); err != nil {
		t.Errorf("good weights rejected: %v", err)
	}
	cases := []Weights{
		{"match": 0.5, "card": 0.3, "coverage": 0.2},                                    // missing
		{"match": 0.4, "card": 0.3, "coverage": 0.2, "redundancy": 0.2},                 // sum ≠ 1
		{"match": -0.1, "card": 0.5, "coverage": 0.3, "redundancy": 0.3},                // negative
		{"match": 0.4, "card": 0.3, "coverage": 0.2, "redundancy": 0.1, "mystery": 0.0}, // unknown
		{"match": math.NaN(), "card": 0.3, "coverage": 0.2, "redundancy": 0.5},          // NaN
		{"match": 1.2, "card": -0.1, "coverage": -0.05, "redundancy": -0.05},            // out of range
	}
	for i, w := range cases {
		if err := w.Validate(qefs); err == nil {
			t.Errorf("case %d: bad weights accepted: %v", i, w)
		}
	}
}

func TestWeightsNormalized(t *testing.T) {
	w := Weights{"a": 2, "b": 2}
	n := w.Normalized()
	if !testutil.AlmostEqual(n["a"], 0.5) || !testutil.AlmostEqual(n["b"], 0.5) {
		t.Errorf("Normalized = %v", n)
	}
	z := Weights{"a": 0, "b": 0}.Normalized()
	if !testutil.AlmostEqual(z["a"], 0.5) || !testutil.AlmostEqual(z["b"], 0.5) {
		t.Errorf("zero weights Normalized = %v", z)
	}
	// Clone is independent.
	c := w.Clone()
	c["a"] = 9
	if !testutil.AlmostEqual(w["a"], 2) {
		t.Error("Clone shares storage")
	}
	names := w.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
	// The sum does not follow map order: these weights sum to different
	// floats in different orders, and every call must agree bit for bit.
	odd := Weights{"a": 0.33, "b": 0.2, "c": 0.6, "d": 0.1, "e": 0.3}
	first := odd.Normalized()
	for i := 0; i < 100; i++ {
		for name, v := range odd.Normalized() {
			if math.Float64bits(v) != math.Float64bits(first[name]) {
				t.Fatalf("call %d: %s = %v, first call %v", i, name, v, first[name])
			}
		}
	}
}

func TestPaperDefaultsSumToOne(t *testing.T) {
	sum := 0.0
	for _, v := range PaperDefaults() {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("paper default weights sum to %v", sum)
	}
}

func TestUniform(t *testing.T) {
	w := Uniform(MainQEFs())
	if err := w.Validate(MainQEFs()); err != nil {
		t.Errorf("uniform weights invalid: %v", err)
	}
	if !testutil.AlmostEqual(w[NameCardinality], 0.25) {
		t.Errorf("uniform weight = %v", w[NameCardinality])
	}
}

func TestQualityEvalAndBreakdown(t *testing.T) {
	u := dataUniverse(t)
	qefs := MainQEFs()
	q, err := NewQuality(qefs, Uniform(qefs))
	if err != nil {
		t.Fatal(err)
	}
	c := ctx(t, u, ids(0, 1))
	c.F1 = matchF1(t, u, c.IDs)
	total := q.Eval(c)
	br := q.Breakdown(c)
	sum := 0.0
	for name, v := range br {
		if v < 0 || v > 1 {
			t.Errorf("QEF %s out of range: %v", name, v)
		}
		sum += 0.25 * v
	}
	if math.Abs(total-sum) > 1e-12 {
		t.Errorf("Eval %v != weighted breakdown %v", total, sum)
	}
}

func TestNewQualityRejectsBad(t *testing.T) {
	if _, err := NewQuality(nil, Weights{}); err == nil {
		t.Error("empty QEF list accepted")
	}
	dup := []QEF{Cardinality{}, Cardinality{}}
	if _, err := NewQuality(dup, Weights{"card": 1}); err == nil {
		t.Error("duplicate QEF names accepted")
	}
	if _, err := NewQuality(MainQEFs(), Weights{"match": 1}); err == nil {
		t.Error("incomplete weights accepted")
	}
}

func charUniverse(t testing.TB) *source.Universe {
	t.Helper()
	u := source.NewUniverse(sigCfg)
	a := tupleRange(t, 0, 10000, "x")
	a.SetCharacteristic("mttf", 100)
	b := tupleRange(t, 10000, 40000, "y")
	b.SetCharacteristic("mttf", 200)
	c := tupleRange(t, 40000, 50000, "z") // no mttf
	mustAdd(t, u, a)
	mustAdd(t, u, b)
	mustAdd(t, u, c)
	return u
}

func TestWSum(t *testing.T) {
	u := charUniverse(t)
	q := Characteristic{Char: "mttf", Agg: WSum{}}
	if q.Name() != "mttf" {
		t.Errorf("Name = %q", q.Name())
	}
	// Range is [100, 200]. s0 normalizes to 0, s1 to 1.
	if got := q.Eval(ctx(t, u, ids(0))); got != 0 {
		t.Errorf("wsum({s0}) = %v, want 0", got)
	}
	if got := q.Eval(ctx(t, u, ids(1))); !testutil.AlmostEqual(got, 1) {
		t.Errorf("wsum({s1}) = %v, want 1", got)
	}
	// {s0, s1}: (0·10k + 1·30k) / 40k = 0.75.
	if got := q.Eval(ctx(t, u, ids(0, 1))); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("wsum({s0,s1}) = %v, want 0.75", got)
	}
	// Missing characteristic counts as the minimum.
	if got := q.Eval(ctx(t, u, ids(2))); got != 0 {
		t.Errorf("wsum({s2}) = %v, want 0", got)
	}
	if got := q.Eval(ctx(t, u, nil)); got != 0 {
		t.Errorf("wsum(∅) = %v, want 0", got)
	}
}

func TestInvertedCharacteristic(t *testing.T) {
	u := charUniverse(t)
	lat := Characteristic{Char: "mttf", Agg: WSum{}, Invert: true}
	if got := lat.Eval(ctx(t, u, ids(0))); !testutil.AlmostEqual(got, 1) {
		t.Errorf("inverted low value = %v, want 1", got)
	}
	if got := lat.Eval(ctx(t, u, ids(1))); got != 0 {
		t.Errorf("inverted high value = %v, want 0", got)
	}
}

func TestMeanMinMaxAggregators(t *testing.T) {
	u := charUniverse(t)
	sel := ids(0, 1)
	if got := (Characteristic{Char: "mttf", Agg: Mean{}}).Eval(ctx(t, u, sel)); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("mean = %v, want 0.5", got)
	}
	if got := (Characteristic{Char: "mttf", Agg: Min{}}).Eval(ctx(t, u, sel)); got != 0 {
		t.Errorf("min = %v, want 0", got)
	}
	if got := (Characteristic{Char: "mttf", Agg: Max{}}).Eval(ctx(t, u, sel)); !testutil.AlmostEqual(got, 1) {
		t.Errorf("max = %v, want 1", got)
	}
	// Empty selections.
	for _, agg := range []Aggregator{Mean{}, Min{}, Max{}, WSum{}} {
		if got := (Characteristic{Char: "mttf", Agg: agg}).Eval(ctx(t, u, nil)); got != 0 {
			t.Errorf("%s(∅) = %v, want 0", agg.Name(), got)
		}
	}
}

func TestDegenerateCharacteristicRange(t *testing.T) {
	u := source.NewUniverse(sigCfg)
	a := tupleRange(t, 0, 1000, "x")
	a.SetCharacteristic("fees", 5)
	b := tupleRange(t, 1000, 2000, "y")
	b.SetCharacteristic("fees", 5)
	mustAdd(t, u, a)
	mustAdd(t, u, b)
	got := (Characteristic{Char: "fees", Agg: WSum{}}).Eval(ctx(t, u, ids(0, 1)))
	if !testutil.AlmostEqual(got, 1) {
		t.Errorf("degenerate range = %v, want 1 (no discrimination)", got)
	}
	// Unknown characteristic → 0.
	if got := (Characteristic{Char: "nope", Agg: WSum{}}).Eval(ctx(t, u, ids(0))); got != 0 {
		t.Errorf("unknown characteristic = %v, want 0", got)
	}
}

func TestAggregatorByName(t *testing.T) {
	for _, name := range []string{"wsum", "mean", "min", "max"} {
		a, err := AggregatorByName(name)
		if err != nil || a.Name() != name {
			t.Errorf("AggregatorByName(%q) = %v, %v", name, a, err)
		}
	}
	if _, err := AggregatorByName("median"); err == nil {
		t.Error("unknown aggregator accepted")
	}
}

// TestQEFRangeProperty fuzzes random source subsets and asserts every QEF
// stays within [0,1] — the contract the optimization problem depends on.
func TestQEFRangeProperty(t *testing.T) {
	u := dataUniverse(t)
	qefs := append(MainQEFs(), Characteristic{Char: "mttf", Agg: WSum{}})
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		var sel []schema.SourceID
		for id := 0; id < u.Len(); id++ {
			if r.Intn(2) == 0 {
				sel = append(sel, schema.SourceID(id))
			}
		}
		c := ctx(t, u, sel)
		c.F1 = matchF1(t, u, sel)
		for _, q := range qefs {
			v := q.Eval(c)
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("QEF %s out of range on %v: %v", q.Name(), sel, v)
			}
		}
	}
}

// mustAdd adds s to u, failing the test on any error.
func mustAdd(t testing.TB, u *source.Universe, s *source.Source) {
	t.Helper()
	if _, err := u.Add(s); err != nil {
		t.Fatal(err)
	}
}
