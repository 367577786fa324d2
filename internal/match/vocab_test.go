package match

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mube/internal/constraint"
	"mube/internal/pcsa"
	"mube/internal/schema"
	"mube/internal/source"
	"mube/internal/synth"
)

// rebuildOn copies u's first n sources, in order, into a fresh universe
// whose vocabulary first interns pre; each copy's schema is a
// schema.NewSchema over its names, which Add re-homes.
func rebuildOn(t *testing.T, u *source.Universe, n int, pre []string) *source.Universe {
	t.Helper()
	nu := source.NewUniverse(u.SignatureConfig())
	for _, name := range pre {
		nu.Vocab().Intern(name)
	}
	for _, s := range u.Sources()[:n] {
		names := make([]string, s.Schema.Len())
		for i := range names {
			names[i] = s.Schema.Name(i)
		}
		c := *s
		c.Schema = schema.NewSchema(names...)
		if _, err := nu.Add(&c); err != nil {
			t.Fatal(err)
		}
	}
	return nu
}

// assertSameMatcher checks that got interns the same names with the same ids
// as want, and scores every attribute pair and the seeded subsets bit for
// bit alike.
func assertSameMatcher(t *testing.T, label string, want, got *Matcher) {
	t.Helper()
	if got.SimIDs() != want.SimIDs() || !slices.Equal(got.names, want.names) {
		t.Fatalf("%s: %d names %q, want %d names %q", label, got.SimIDs(), got.names, want.SimIDs(), want.names)
	}
	var refs []schema.AttrRef
	for si, row := range want.simID {
		if !slices.Equal(got.simID[si], row) {
			t.Fatalf("%s: source %d has name ids %v, want %v", label, si, got.simID[si], row)
		}
		for ai := range row {
			refs = append(refs, schema.AttrRef{Source: schema.SourceID(si), Attr: ai})
		}
	}
	for i, a := range refs {
		for _, b := range refs[i:] {
			if g, w := got.PairSim(a, b), want.PairSim(a, b); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: PairSim(%v, %v) = %v, want %v", label, a, b, g, w)
			}
		}
	}
	r := rand.New(rand.NewSource(11))
	gs, ws := got.NewSharded(constraint.Set{}), want.NewSharded(constraint.Set{})
	n := len(want.simID)
	for trial := 0; trial < 40; trial++ {
		ids := make([]schema.SourceID, 0, 12)
		for _, i := range r.Perm(n)[:1+r.Intn(12)] {
			ids = append(ids, schema.SourceID(i))
		}
		slices.Sort(ids)
		gq, gok, gerr := gs.Score(ids)
		wq, wok, werr := ws.Score(ids)
		if gerr != nil || werr != nil {
			t.Fatalf("%s: Score(%v): %v, %v", label, ids, gerr, werr)
		}
		if gok != wok || math.Float64bits(gq) != math.Float64bits(wq) {
			t.Fatalf("%s: Score(%v) = %v %v, want %v %v", label, ids, gq, gok, wq, wok)
		}
	}
}

// TestVocabOrderNeverReachesMatcher pins that name ids follow the order
// attributes are first seen in, over sources and attributes, and never the
// order a vocabulary holds the names in. One universe is built three ways:
// by the generator, which interns names before it perturbs schemas; from
// schema.NewSchema copies that Add re-homes, in first-seen order; and on a
// vocabulary pre-interned in reverse order, with a name no source uses after
// each. All three match alike, and Rebind onto a universe with another
// vocabulary equals New on it, also from a matcher that has seen only a
// prefix of the sources.
func TestVocabOrderNeverReachesMatcher(t *testing.T) {
	for _, domains := range []int{0, 6} {
		cfg := synth.Scaled(0.001)
		cfg.NumSources = 90
		cfg.Seed = 3
		cfg.Sig = pcsa.Config{NumMaps: 16}
		cfg.Domains = domains
		gen, err := synth.GenerateUniverse(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var rev []string
		for id := gen.Vocab().Len() - 1; id >= 0; id-- {
			rev = append(rev, gen.Vocab().Name(int32(id)), fmt.Sprintf("unused %d", id))
		}
		copies, reversed := rebuildOn(t, gen, gen.Len(), nil), rebuildOn(t, gen, gen.Len(), rev)
		if reversed.Vocab().Name(0) == gen.Vocab().Name(0) || reversed.Vocab().Len() <= gen.Vocab().Len() {
			t.Fatalf("domains=%d: the reversed vocabulary is not reordered and padded", domains)
		}
		want := MustNew(gen, Config{})
		prefix := MustNew(rebuildOn(t, gen, 30, nil), Config{})
		for _, tc := range []struct {
			name string
			u    *source.Universe
		}{{"copies", copies}, {"reversed", reversed}} {
			label := fmt.Sprintf("domains=%d/%s", domains, tc.name)
			cold := MustNew(tc.u, Config{})
			assertSameMatcher(t, label+"/New", want, cold)
			for _, m := range []*Matcher{want, prefix} {
				warm, err := m.Rebind(tc.u)
				if err != nil {
					t.Fatal(err)
				}
				assertSameMatcher(t, fmt.Sprintf("%s/Rebind from %d sources", label, m.NumSources()), cold, warm)
			}
		}
	}
}
