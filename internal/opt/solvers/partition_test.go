package solvers

import (
	"context"
	"fmt"
	"math"
	"testing"

	"mube/internal/constraint"
	"mube/internal/match"
	"mube/internal/opt"
	"mube/internal/opt/tabu"
	"mube/internal/pcsa"
	"mube/internal/qef"
	"mube/internal/schema"
	"mube/internal/synth"
)

// domainProblem builds a multi-domain universe (disjoint per-domain
// vocabularies → several independent source groups) with the paper's QEF
// stack.
func domainProblem(t testing.TB, sources, domains, maxSources int, cons constraint.Set) *opt.Problem {
	t.Helper()
	cfg := synth.Scaled(0.001)
	cfg.NumSources = sources
	cfg.Domains = domains
	cfg.Sig = pcsa.Config{NumMaps: 64}
	u, err := synth.GenerateUniverse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	matcher := match.MustNew(u, match.Config{Theta: 0.5})
	qefs := append(qef.MainQEFs(), qef.Characteristic{Char: "mttf", Agg: qef.WSum{}})
	q, err := qef.NewQuality(qefs, qef.Weights{
		qef.NameMatchQuality: 0.25,
		qef.NameCardinality:  0.25,
		qef.NameCoverage:     0.20,
		qef.NameRedundancy:   0.15,
		"mttf":               0.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &opt.Problem{
		Universe:    u,
		Matcher:     matcher,
		Quality:     q,
		MaxSources:  maxSources,
		Constraints: cons,
	}
}

// TestPartitionedDelegatesSingleGroup pins that on a single-group universe
// (the Books fixture: shared noise words link every shard) the wrapper is the
// inner solver, bit for bit.
func TestPartitionedDelegatesSingleGroup(t *testing.T) {
	p := problem(t, 4, constraint.Set{})
	if g := p.Matcher.NewSharded(p.Constraints).SourceGroups(); len(g) != 1 {
		t.Skipf("fixture now has %d groups; delegation test needs 1", len(g))
	}
	opts := opt.Options{Seed: 3, MaxEvals: 200, MaxIters: 15, Patience: 5}
	direct, err := (tabu.Solver{}).Solve(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := (Partitioned{Inner: tabu.Solver{}}).Solve(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(direct.Quality) != math.Float64bits(wrapped.Quality) ||
		direct.Evals != wrapped.Evals {
		t.Errorf("delegation not transparent: direct (q=%v evals=%d) vs wrapped (q=%v evals=%d)",
			direct.Quality, direct.Evals, wrapped.Quality, wrapped.Evals)
	}
}

// TestPartitionedSolve checks the multi-group path end to end: the solve
// completes, the solution is feasible, respects required-source constraints,
// reports aggregated evals, and two identical runs are bit-identical.
func TestPartitionedSolve(t *testing.T) {
	cons := constraint.Set{Sources: []schema.SourceID{2, 7}}
	p := domainProblem(t, 60, 5, 10, cons)
	ps := Partitioned{Inner: tabu.Solver{}}
	opts := opt.Options{Seed: 9, MaxEvals: 600, MaxIters: 12, Patience: 4}

	sol, err := ps.Solve(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != opt.StatusCompleted && sol.Status != opt.StatusExhausted {
		t.Fatalf("status = %v", sol.Status)
	}
	if !p.Feasible(sol.IDs) {
		t.Fatalf("partitioned solution %v infeasible", sol.IDs)
	}
	for _, req := range cons.Sources {
		found := false
		for _, id := range sol.IDs {
			if id == req {
				found = true
			}
		}
		if !found {
			t.Fatalf("required source %d missing from %v", req, sol.IDs)
		}
	}
	if sol.Evals <= 0 {
		t.Fatal("no evaluations accounted")
	}
	if !sol.MatchOK {
		t.Fatal("union schema failed to match")
	}

	again, err := ps.Solve(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(sol.Quality) != math.Float64bits(again.Quality) ||
		len(sol.IDs) != len(again.IDs) {
		t.Fatalf("partitioned solve not reproducible: %v vs %v", sol, again)
	}
	for i := range sol.IDs {
		if sol.IDs[i] != again.IDs[i] {
			t.Fatalf("partitioned solve not reproducible: ids %v vs %v", sol.IDs, again.IDs)
		}
	}
}

// TestPartitionedBudgetSplit checks the slot arithmetic: group quotas honor
// MaxSources in total and required floors per group.
func TestPartitionedBudgetSplit(t *testing.T) {
	groups := [][]schema.SourceID{
		{0, 1, 2, 3, 4, 5},
		{6, 7},
		{8, 9, 10},
	}
	share := splitBudget(6, groups, []int{1, 0, 1})
	sum := 0
	for i, s := range share {
		if s < 0 || s > len(groups[i]) {
			t.Fatalf("share[%d] = %d out of range", i, s)
		}
		sum += s
	}
	if sum != 6 {
		t.Fatalf("shares sum to %d, want 6", sum)
	}
	// Free slots beyond total capacity are left unused, not over-assigned.
	share = splitBudget(40, groups, []int{0, 0, 0})
	sum = 0
	for i, s := range share {
		if s > len(groups[i]) {
			t.Fatalf("share[%d] = %d exceeds group size %d", i, s, len(groups[i]))
		}
		sum += s
	}
	if sum != 11 {
		t.Fatalf("capacity-capped shares sum to %d, want 11", sum)
	}
}

// TestPartitionedByName checks registry resolution of the wrapper forms.
func TestPartitionedByName(t *testing.T) {
	s, err := ByName("partition")
	if err != nil || s.Name() != "partition+tabu" {
		t.Fatalf("ByName(partition) = %v, %v", s, err)
	}
	s, err = ByName("partition+sls")
	if err != nil || s.Name() != "partition+sls" {
		t.Fatalf("ByName(partition+sls) = %v, %v", s, err)
	}
	if _, err := ByName("partition+nope"); err == nil {
		t.Fatal("ByName(partition+nope) should fail")
	}
}

// TestFilterIDs pins the warm-start filter: it keeps, in order, the ids of
// one group and drops ids outside the universe, which a warm start may hold
// because nothing validates it.
func TestFilterIDs(t *testing.T) {
	groupOf := []int32{0, 1, 0, 1}
	ids := []schema.SourceID{3, 0, 7, -1, 2}
	for gi, want := range []string{"[0 2]", "[3]"} {
		if got := fmt.Sprint(filterIDs(ids, groupOf, int32(gi))); got != want {
			t.Errorf("group %d: filterIDs = %s, want %s", gi, got, want)
		}
	}
}
