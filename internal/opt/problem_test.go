package opt

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mube/internal/constraint"
	"mube/internal/match"
	"mube/internal/qef"
	"mube/internal/schema"
	"mube/internal/testutil"
)

// problem builds a standard test problem over the Books fixture.
func problem(t testing.TB, maxSources int, cons constraint.Set) *Problem {
	t.Helper()
	u := testutil.BooksUniverse(t)
	matcher := match.MustNew(u, match.Config{Theta: 0.45})
	qefs := append(qef.MainQEFs(), qef.Characteristic{Char: "mttf", Agg: qef.WSum{}})
	w := qef.Weights{
		qef.NameMatchQuality: 0.25,
		qef.NameCardinality:  0.25,
		qef.NameCoverage:     0.20,
		qef.NameRedundancy:   0.15,
		"mttf":               0.15,
	}
	q, err := qef.NewQuality(qefs, w)
	if err != nil {
		t.Fatal(err)
	}
	return &Problem{
		Universe:    u,
		Matcher:     matcher,
		Quality:     q,
		MaxSources:  maxSources,
		Constraints: cons,
	}
}

func ids(ns ...int) []schema.SourceID {
	out := make([]schema.SourceID, len(ns))
	for i, n := range ns {
		out[i] = schema.SourceID(n)
	}
	return out
}

func TestProblemValidate(t *testing.T) {
	p := problem(t, 5, constraint.Set{})
	if err := p.Validate(); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}

	bad := *p
	bad.MaxSources = 0
	if err := bad.Validate(); err == nil {
		t.Error("MaxSources=0 accepted")
	}
	bad = *p
	bad.MaxSources = 100
	if err := bad.Validate(); err == nil {
		t.Error("MaxSources > N accepted")
	}
	bad = *p
	bad.Universe = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil universe accepted")
	}
	bad = *p
	bad.Quality = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil quality accepted")
	}
	bad = *p
	bad.Matcher = nil
	if err := bad.Validate(); err == nil {
		t.Error("match QEF without matcher accepted")
	}
	bad = *p
	bad.Constraints = constraint.Set{Sources: ids(0, 1, 2, 3)}
	bad.MaxSources = 3
	if err := bad.Validate(); err == nil {
		t.Error("more required sources than MaxSources accepted")
	}
	bad = *p
	bad.Constraints = constraint.Set{Sources: ids(99)}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range constraint accepted")
	}
}

func TestFeasible(t *testing.T) {
	p := problem(t, 3, constraint.Set{Sources: ids(2)})
	cases := []struct {
		ids  []schema.SourceID
		want bool
	}{
		{ids(2), true},
		{ids(0, 2), true},
		{ids(0, 1, 2), true},
		{ids(0, 1), false},       // missing required source 2
		{ids(0, 1, 2, 3), false}, // too large
		{ids(2, 2), false},       // duplicate
		{ids(2, 99), false},      // out of range
		{ids(2, -1), false},      // negative
	}
	for _, c := range cases {
		if got := p.Feasible(c.ids); got != c.want {
			t.Errorf("Feasible(%v) = %v, want %v", c.ids, got, c.want)
		}
	}
}

func TestEvaluatorMemoizes(t *testing.T) {
	p := problem(t, 4, constraint.Set{})
	e := NewEvaluator(p, 0)
	a := e.Eval(ids(0, 1, 2))
	if e.Evals() != 1 || e.Calls() != 1 {
		t.Fatalf("evals=%d calls=%d after first eval", e.Evals(), e.Calls())
	}
	b := e.Eval(ids(0, 1, 2))
	if !testutil.AlmostEqual(a, b) {
		t.Errorf("memoized value differs: %v vs %v", a, b)
	}
	if e.Evals() != 1 || e.Calls() != 2 {
		t.Errorf("evals=%d calls=%d after repeat", e.Evals(), e.Calls())
	}
	// Different subset is a new evaluation.
	e.Eval(ids(0, 1, 3))
	if e.Evals() != 2 {
		t.Errorf("evals=%d after new subset", e.Evals())
	}
}

func TestEvaluatorBudget(t *testing.T) {
	p := problem(t, 4, constraint.Set{})
	e := NewEvaluator(p, 2)
	e.Eval(ids(0))
	e.Eval(ids(1))
	if !e.Exhausted() {
		t.Fatal("budget of 2 not exhausted after 2 distinct evals")
	}
	if got := e.Eval(ids(2)); !Unscored(got) {
		t.Errorf("post-budget eval = %v, want Unscored sentinel", got)
	}
	// Cached subsets still return real values.
	if got := e.Eval(ids(0)); Unscored(got) || got == 0 {
		t.Error("cached value lost after budget exhaustion")
	}
}

func TestEvaluatorInfeasibleScoresZero(t *testing.T) {
	p := problem(t, 2, constraint.Set{Sources: ids(5)})
	e := NewEvaluator(p, 0)
	if got := e.Eval(ids(0, 1)); got != 0 {
		t.Errorf("infeasible subset scored %v", got)
	}
	if got := e.Eval(ids(5, 1)); got == 0 {
		t.Error("feasible subset scored 0 (universe should have quality signal)")
	}
}

func TestEvaluatorSolution(t *testing.T) {
	p := problem(t, 4, constraint.Set{})
	e := NewEvaluator(p, 0)
	sol := e.Solution(ids(3, 0, 1), "test")
	if len(sol.IDs) != 3 || sol.IDs[0] != 0 || sol.IDs[2] != 3 {
		t.Errorf("solution IDs not sorted: %v", sol.IDs)
	}
	if sol.Solver != "test" {
		t.Errorf("Solver = %q", sol.Solver)
	}
	if !sol.MatchOK || sol.Schema.Len() == 0 {
		t.Errorf("expected a mediated schema, got MatchOK=%v len=%d", sol.MatchOK, sol.Schema.Len())
	}
	if len(sol.GAQuality) != sol.Schema.Len() {
		t.Errorf("GAQuality misaligned: %d vs %d", len(sol.GAQuality), sol.Schema.Len())
	}
	if len(sol.Breakdown) != 5 {
		t.Errorf("breakdown = %v", sol.Breakdown)
	}
	names := sol.SourceNames(p.Universe)
	if len(names) != 3 || names[0] == "" {
		t.Errorf("SourceNames = %v", names)
	}
}

// TestEvaluatorInvalidMatchF1 pins F1(S) = 0 when Match(S) is not valid on
// the source constraints: a required source alone forms no GA, so the
// solution carries no schema and a zero match breakdown, and Q(S), which the
// evaluator computes apart from the report, is the weighted sum of that
// breakdown.
func TestEvaluatorInvalidMatchF1(t *testing.T) {
	p := problem(t, 4, constraint.Set{Sources: ids(3)})
	sol := NewEvaluator(p, 0).Solution(ids(3), "test")
	if sol.MatchOK || sol.Schema.Len() != 0 || sol.Breakdown[qef.NameMatchQuality] != 0 {
		t.Fatalf("lone required source: MatchOK=%v, %d GAs, F1 %v; want no match and F1 0",
			sol.MatchOK, sol.Schema.Len(), sol.Breakdown[qef.NameMatchQuality])
	}
	want := 0.0
	for _, f := range p.Quality.QEFs {
		want += p.Quality.Weights[f.Name()] * sol.Breakdown[f.Name()]
	}
	if math.Float64bits(sol.Quality) != math.Float64bits(want) {
		t.Errorf("Q = %v, want the weighted breakdown %v", sol.Quality, want)
	}
}

// TestSolutionQualityMatchesScore pins Solution's Q(S), read from the
// context its breakdown uses, bit-equal to Score's on a fresh evaluator that
// never scored the set: for a feasible and an infeasible set, under the
// paper's weights and under weights that zero the QEFs reading F1, the union
// or the cooperative union, which the breakdown's context always carries and
// the evaluator's skips.
func TestSolutionQualityMatchesScore(t *testing.T) {
	for _, w := range []qef.Weights{
		{qef.NameMatchQuality: 0.25, qef.NameCardinality: 0.25, qef.NameCoverage: 0.2, qef.NameRedundancy: 0.15, "mttf": 0.15},
		{qef.NameMatchQuality: 0, qef.NameCardinality: 0.4, qef.NameCoverage: 0.2, qef.NameRedundancy: 0.2, "mttf": 0.2},
		{qef.NameMatchQuality: 0.5, qef.NameCardinality: 0.3, qef.NameCoverage: 0, qef.NameRedundancy: 0, "mttf": 0.2},
		{qef.NameMatchQuality: 0.4, qef.NameCardinality: 0.2, qef.NameCoverage: 0.2, qef.NameRedundancy: 0, "mttf": 0.2},
	} {
		p := problem(t, 4, constraint.Set{Sources: ids(2)})
		q, err := qef.NewQuality(p.Quality.QEFs, w)
		if err != nil {
			t.Fatal(err)
		}
		p.Quality = q
		for _, set := range [][]schema.SourceID{ids(0, 2, 5), ids(0, 1, 3)} {
			want, err := Score(p, set)
			if err != nil {
				t.Fatal(err)
			}
			got := NewEvaluator(p, 0).Solution(set, "test").Quality
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("weights %v, set %v: Solution Q = %v, Score %v", w, set, got, want)
			}
			if feasible := p.Feasible(set); feasible != (want > 0) {
				t.Errorf("weights %v, set %v: feasible %v but Score %v", w, set, feasible, want)
			}
		}
	}
}

func TestSearchRandomSubsetAlwaysFeasible(t *testing.T) {
	cons := constraint.Set{Sources: ids(7)}
	p := problem(t, 5, cons)
	s, err := NewSearch(context.Background(), p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		sub := s.RandomSubset()
		if !p.Feasible(sub) {
			t.Fatalf("RandomSubset produced infeasible %v", sub)
		}
		if len(sub) != 5 {
			t.Fatalf("RandomSubset size %d, want full m=5", len(sub))
		}
	}
}

func TestMovesPreserveFeasibility(t *testing.T) {
	cons := constraint.Set{Sources: ids(4)}
	p := problem(t, 4, cons)
	s, err := NewSearch(context.Background(), p, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	sub := s.NewSubset(s.RandomSubset())
	for step := 0; step < 200; step++ {
		moves := s.Moves(sub, 15)
		if len(moves) == 0 {
			t.Fatal("no moves generated")
		}
		for _, mv := range moves {
			next := sub.Clone()
			next.Apply(mv)
			if !p.Feasible(next.IDs()) {
				t.Fatalf("move %+v broke feasibility: %v", mv, next.IDs())
			}
		}
		sub.Apply(moves[r.Intn(len(moves))])
	}
}

func TestMovesNeverDropRequired(t *testing.T) {
	cons := constraint.Set{Sources: ids(0, 1)}
	p := problem(t, 3, cons)
	s, err := NewSearch(context.Background(), p, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sub := s.NewSubset(ids(0, 1, 5))
	for i := 0; i < 50; i++ {
		for _, mv := range s.Moves(sub, 20) {
			if mv.Drop == 0 || mv.Drop == 1 {
				t.Fatalf("move drops required source: %+v", mv)
			}
		}
	}
}

func TestSubsetBasics(t *testing.T) {
	p := problem(t, 4, constraint.Set{})
	s, err := NewSearch(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sub := s.NewSubset(ids(3, 1, 3)) // unsorted, with a duplicate
	if got := sub.IDs(); sub.Len() != 2 || !slices.Equal(got, ids(1, 3)) {
		t.Errorf("NewSubset(3, 1, 3) holds %v (Len %d), want [1 3]", got, sub.Len())
	}
	cl := sub.Clone()
	cl.Apply(Move{Add: 2, Drop: 1})
	if got := sub.IDs(); !slices.Equal(got, ids(1, 3)) {
		t.Errorf("Clone shares state: original now %v", got)
	}
	if got := cl.IDs(); !slices.Equal(got, ids(2, 3)) {
		t.Errorf("IDs after move = %v, want [2 3]", got)
	}
	cl.Apply(Move{Add: 3, Drop: 0}) // re-add a member, drop a non-member
	cl.Apply(Move{Add: 0, Drop: 3})
	if got := cl.IDs(); !slices.Equal(got, ids(0, 2)) {
		t.Errorf("IDs after no-op sides = %v, want [0 2]", got)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.MaxEvals != DefaultMaxEvals || o.MaxIters != DefaultMaxIters || o.Patience != DefaultPatience {
		t.Errorf("defaults = %+v", o)
	}
	keep := Options{MaxEvals: 7, MaxIters: 8, Patience: 9}.WithDefaults()
	if keep.MaxEvals != 7 || keep.MaxIters != 8 || keep.Patience != 9 {
		t.Errorf("explicit options overwritten: %+v", keep)
	}
}

func TestStartSubsetWarmStart(t *testing.T) {
	p := problem(t, 4, constraint.Set{Sources: ids(2)})
	s, err := NewSearch(context.Background(), p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Feasible warm start is honored verbatim (sorted).
	warm := []schema.SourceID{5, 2, 0}
	got := s.StartSubset(p, Options{Initial: warm})
	if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 5 {
		t.Errorf("StartSubset = %v, want [0 2 5]", got)
	}
	// Infeasible warm start (missing required source 2) falls back to a
	// random feasible subset.
	got = s.StartSubset(p, Options{Initial: ids(0, 1)})
	if !p.Feasible(got) {
		t.Errorf("fallback start %v infeasible", got)
	}
	// No warm start → random feasible subset.
	got = s.StartSubset(p, Options{})
	if !p.Feasible(got) {
		t.Errorf("random start %v infeasible", got)
	}
}
