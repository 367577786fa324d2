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
		_, err := tabu.Solver{}.Solve(context.Background(), p, opt.Options{Seed: 1, MaxEvals: 200})
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

// TestSolveRejectsMatcherBuiltBeforeUniverseChanged covers the schema edits
// that leave the universe no larger than the matcher's table: a Remove, and
// a Remove followed by an Add. Either way the table's rows belong to the
// sources that held those ids before, so Problem.Validate and Matcher.Match
// must refuse the stale matcher, and a solve must succeed once Rebind has
// run.
func TestSolveRejectsMatcherBuiltBeforeUniverseChanged(t *testing.T) {
	q, err := qef.NewQuality(qef.MainQEFs(), qef.Uniform(qef.MainQEFs()))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(t *testing.T, u *source.Universe)
	}{
		{"remove", func(t *testing.T, u *source.Universe) {
			if _, err := u.Remove([]schema.SourceID{0}); err != nil {
				t.Fatal(err)
			}
		}},
		{"remove then add", func(t *testing.T, u *source.Universe) {
			if _, err := u.Remove([]schema.SourceID{0}); err != nil {
				t.Fatal(err)
			}
			if _, err := u.Add(source.Uncooperative("x", schema.NewSchema("a", "b", "c", "d"))); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u := testutil.BooksUniverse(t)
			m := match.MustNew(u, match.Config{Theta: 0.45})
			tc.edit(t, u)
			p := &opt.Problem{Universe: u, Matcher: m, Quality: q, MaxSources: 6, Constraints: constraint.Set{}}
			solve := func() (*opt.Solution, error) {
				return tabu.Solver{}.Solve(context.Background(), p, opt.Options{Seed: 1, MaxEvals: 200})
			}
			if sol, err := solve(); err == nil {
				t.Fatalf("solve with a matcher built before the edit succeeded: schema %v", sol.Schema)
			}
			if _, err := m.Match([]schema.SourceID{1, 2}, constraint.Set{}); err == nil {
				t.Error("Match on a matcher built before the edit succeeded")
			}
			rebound, err := m.Rebind(u)
			if err != nil {
				t.Fatal(err)
			}
			p.Matcher = rebound
			sol, err := solve()
			if err != nil {
				t.Fatalf("solve after Rebind: %v", err)
			}
			for _, ga := range sol.Schema.GAs {
				for _, r := range ga.Refs() {
					if r.Attr >= u.Source(r.Source).Schema.Len() {
						t.Fatalf("schema names %v, past source %d's %d attributes", r, r.Source, u.Source(r.Source).Schema.Len())
					}
				}
			}
		})
	}
}
