package opt_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"mube/internal/constraint"
	"mube/internal/match"
	"mube/internal/opt"
	"mube/internal/opt/tabu"
	"mube/internal/qef"
	"mube/internal/schema"
	"mube/internal/source"
	"mube/internal/testutil"
)

// TestSolveRejectsMatcherBuiltBeforeUniverseGrew builds a matcher, then adds
// three sources to its universe. The similarity table covers none of them,
// so a solve that picks one would index the shard lists past their end:
// Problem.Validate must refuse the problem, naming both counts, and the
// solve must return that error.
func TestSolveRejectsMatcherBuiltBeforeUniverseGrew(t *testing.T) {
	u := testutil.BooksUniverse(t)
	m := match.MustNew(u, match.Config{Theta: 0.45})
	built := u.Len()
	for i := 0; i < 3; i++ {
		if _, err := u.Add(source.Uncooperative("x", schema.NewSchema("title"))); err != nil {
			t.Fatal(err)
		}
	}
	q, err := qef.NewQuality(qef.MainQEFs(), qef.Uniform(qef.MainQEFs()))
	if err != nil {
		t.Fatal(err)
	}
	p := &opt.Problem{Universe: u, Matcher: m, Quality: q, MaxSources: 6, Constraints: constraint.Set{}}
	solve := func() error {
		_, err := tabu.Solver{}.Solve(context.Background(), p, tabu.Options{Seed: 1, MaxEvals: 200})
		return err
	}
	err = solve()
	if err == nil {
		t.Fatalf("solve over a universe grown from %d to %d sources after match.New succeeded", built, u.Len())
	}
	for _, want := range []string{fmt.Sprintf("covers %d sources", built), fmt.Sprintf("has %d", u.Len())} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
	rebound, err := m.Rebind(u)
	if err != nil {
		t.Fatal(err)
	}
	p.Matcher = rebound
	if err := solve(); err != nil {
		t.Fatalf("solve after Rebind: %v", err)
	}
}
