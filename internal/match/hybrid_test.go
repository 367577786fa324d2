package match

import (
	"reflect"
	"testing"

	"mube/internal/constraint"
	"mube/internal/minhash"
	"mube/internal/schema"
	"mube/internal/source"
	"mube/internal/testutil"
)

// hybridUniverse builds three sources where source 2 *renamed* its author
// attribute to a noise word ("gearbox") but still serves the same author
// values — invisible to name matching, obvious to data matching.
func hybridUniverse(t *testing.T) *source.Universe {
	t.Helper()
	u := source.NewUniverse(sigCfg)
	add := func(name string, attrs []string, valueSets [][]uint64) {
		addSketched(t, u, name, attrs, valueSets)
	}
	authors := seq(0, 2000)       // shared author value space
	titles := seq(100000, 103000) // shared title value space
	noise := seq(900000, 900500)  // unrelated values

	add("a", []string{"author", "title"}, [][]uint64{authors, titles})
	add("b", []string{"author", "title"}, [][]uint64{authors, titles})
	add("c", []string{"gearbox", "title"}, [][]uint64{authors, titles}) // renamed author!
	add("d", []string{"gearbox"}, [][]uint64{noise})                    // genuine noise
	return u
}

func TestHybridRecoversRenamedAttribute(t *testing.T) {
	u := hybridUniverse(t)

	// Name-only matching cannot see that c.gearbox is an author attribute —
	// worse, it pairs c.gearbox with d.gearbox (identical names, unrelated
	// data).
	nameOnly := MustNew(u, Config{Theta: 0.5})
	res, err := nameOnly.Match(u.IDs(), constraint.Set{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Schema.GAs {
		if g.Contains(ref(2, 0)) && g.Contains(ref(0, 0)) {
			t.Fatal("name-only matching recovered the renamed attribute — premise broken")
		}
	}

	// Hybrid matching folds in the value sketches: c.gearbox joins the
	// author GA, and the d.gearbox false friend is kept out at θ=0.5 with
	// w=0.5 (name sim 1, data sim ≈0 → combined ≈0.5... use w=0.6 to be
	// decisive).
	hybrid := MustNew(u, Config{Theta: 0.5, DataWeight: 0.6})
	res, err = hybrid.Match(u.IDs(), constraint.Set{})
	if err != nil {
		t.Fatal(err)
	}
	var authorGA *schema.GA
	for i := range res.Schema.GAs {
		if res.Schema.GAs[i].Contains(ref(0, 0)) {
			authorGA = &res.Schema.GAs[i]
		}
	}
	if authorGA == nil {
		t.Fatalf("no author GA in hybrid schema: %v", res.Schema)
	}
	if !authorGA.Contains(ref(2, 0)) {
		t.Errorf("hybrid matching missed the renamed author attribute: %v", authorGA)
	}
	if authorGA.Contains(ref(3, 0)) {
		t.Errorf("hybrid matching absorbed the unrelated gearbox attribute: %v", authorGA)
	}
}

// TestHybridSourceGroups pins the shard index over hybrid similarity ids
// through the public decomposition. By name alone the shared "gearbox" name
// links source 3 to source 2 and so to everything; by data alone source 3's
// gearbox holds unrelated values and stands apart, while source 2's renamed
// author attribute still joins the others.
func TestHybridSourceGroups(t *testing.T) {
	u := hybridUniverse(t)
	for _, tc := range []struct {
		w    float64
		want [][]schema.SourceID
	}{
		{0, [][]schema.SourceID{{0, 1, 2, 3}}},
		{1, [][]schema.SourceID{{0, 1, 2}, {3}}},
	} {
		m := MustNew(u, Config{Theta: 0.5, DataWeight: tc.w})
		if got := m.NewSharded(constraint.Set{}).SourceGroups(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("data weight %v: groups %v, want %v", tc.w, got, tc.want)
		}
	}
}

func TestHybridPairSim(t *testing.T) {
	u := hybridUniverse(t)
	m := MustNew(u, Config{Theta: 0.5, DataWeight: 0.5})
	// Same name, same data → ≈1.
	if s := m.PairSim(ref(0, 0), ref(1, 0)); s < 0.95 {
		t.Errorf("identical attrs sim = %v", s)
	}
	// Different name, same data → ≈ w.
	if s := m.PairSim(ref(0, 0), ref(2, 0)); s < 0.4 || s > 0.6 {
		t.Errorf("renamed attr sim = %v, want ≈0.5", s)
	}
	// Same name, different data → ≈ 1−w.
	if s := m.PairSim(ref(2, 0), ref(3, 0)); s < 0.4 || s > 0.6 {
		t.Errorf("false-friend sim = %v, want ≈0.5", s)
	}
	// Different name, different data → ≈0.
	if s := m.PairSim(ref(0, 1), ref(3, 0)); s > 0.1 {
		t.Errorf("unrelated sim = %v", s)
	}
	if !testutil.AlmostEqual(m.PairSim(ref(0, 0), ref(0, 0)), 1) {
		t.Error("self similarity must be 1")
	}
}

func TestHybridValidation(t *testing.T) {
	u := hybridUniverse(t)
	if _, err := New(u, Config{DataWeight: -0.1}); err == nil {
		t.Error("negative data weight accepted")
	}
	if _, err := New(u, Config{DataWeight: 1.5}); err == nil {
		t.Error("data weight > 1 accepted")
	}
	// Missing sketches degrade gracefully to the name component.
	bare := source.NewUniverse(sigCfg)
	mustAdd(t, bare, source.Uncooperative("x", schema.NewSchema("title")))
	mustAdd(t, bare, source.Uncooperative("y", schema.NewSchema("title")))
	m, err := New(bare, Config{DataWeight: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if s := m.PairSim(ref(0, 0), ref(1, 0)); !testutil.AlmostEqual(s, 0.5) {
		t.Errorf("sketch-less hybrid sim = %v, want name component only (0.5)", s)
	}
}

func TestHybridWithParamsSharesTable(t *testing.T) {
	u := hybridUniverse(t)
	m := MustNew(u, Config{Theta: 0.5, DataWeight: 0.6})
	m2, err := m.WithParams(0.7, 3, MaxLinkage)
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.AlmostEqual(m2.PairSim(ref(0, 0), ref(2, 0)), m.PairSim(ref(0, 0), ref(2, 0))) {
		t.Error("WithParams changed the hybrid table")
	}
	if !testutil.AlmostEqual(m2.Theta(), 0.7) {
		t.Error("theta not applied")
	}
}

// addSketched adds a source named name with the given attributes to u, each
// attribute carrying a 256-slot MinHash signature of its value set.
func addSketched(t testing.TB, u *source.Universe, name string, attrs []string, valueSets [][]uint64) {
	t.Helper()
	s := source.Uncooperative(name, schema.NewSchema(attrs...))
	s.AttrSignatures = make([]*minhash.Signature, len(attrs))
	for a, values := range valueSets {
		sig := minhash.MustNew(256, 0)
		for _, v := range values {
			sig.AddUint64(v)
		}
		s.AttrSignatures[a] = sig
	}
	mustAdd(t, u, s)
}

// seq returns the values [lo, hi).
func seq(lo, hi uint64) []uint64 {
	out := make([]uint64, 0, hi-lo)
	for x := lo; x < hi; x++ {
		out = append(out, x)
	}
	return out
}

// mustAdd adds s to u, failing the test on any error.
func mustAdd(t testing.TB, u *source.Universe, s *source.Source) {
	t.Helper()
	if _, err := u.Add(s); err != nil {
		t.Fatal(err)
	}
}
