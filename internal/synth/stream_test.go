package synth

import (
	"fmt"
	"math"
	"testing"

	"mube/internal/constraint"
	"mube/internal/match"
	"mube/internal/pcsa"
	"mube/internal/schema"
	"mube/internal/source"
	"mube/internal/testutil"
)

// smallCfg keeps tuple counts tiny so tests run in milliseconds.
func smallCfg(n int) Config {
	c := Scaled(0.001)
	c.NumSources = n
	c.Sig = pcsa.Config{NumMaps: 64}
	return c
}

// TestStreamMatchesGenerate pins the refactor: streaming with a collecting
// yield must reproduce Generate exactly — same names, schemas, cardinalities,
// signature estimates, and metadata, in the same order.
func TestStreamMatchesGenerate(t *testing.T) {
	cfg := smallCfg(60)
	res, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	err = Stream(cfg, schema.NewVocab(), func(s *source.Source, m SourceMeta) error {
		want := res.Universe.Source(schema.SourceID(i))
		if s.Name != want.Name {
			return fmt.Errorf("source %d: name %q != %q", i, s.Name, want.Name)
		}
		if s.Cardinality != want.Cardinality {
			return fmt.Errorf("source %d: cardinality %d != %d", i, s.Cardinality, want.Cardinality)
		}
		if got, want := s.Schema.String(), want.Schema.String(); got != want {
			return fmt.Errorf("source %d: attrs %v != %v", i, got, want)
		}
		if math.Float64bits(s.Signature.Estimate()) != math.Float64bits(want.Signature.Estimate()) {
			return fmt.Errorf("source %d: signature estimates differ", i)
		}
		if m.BaseSchema != res.BaseSchema[i] || m.Specialty != res.Specialty[i] {
			return fmt.Errorf("source %d: metadata differs", i)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != cfg.NumSources {
		t.Fatalf("streamed %d sources, want %d", i, cfg.NumSources)
	}
}

// TestGenerateUniverseDeterministic pins per-seed determinism of the lean
// entry point in both modes.
func TestGenerateUniverseDeterministic(t *testing.T) {
	for _, domains := range []int{0, 4} {
		cfg := smallCfg(48)
		cfg.Domains = domains
		a, err := GenerateUniverse(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := GenerateUniverse(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Len() != b.Len() {
			t.Fatalf("domains=%d: sizes differ", domains)
		}
		for i := 0; i < a.Len(); i++ {
			sa, sb := a.Source(schema.SourceID(i)), b.Source(schema.SourceID(i))
			if sa.Name != sb.Name || sa.Cardinality != sb.Cardinality ||
				math.Float64bits(sa.Signature.Estimate()) != math.Float64bits(sb.Signature.Estimate()) {
				t.Fatalf("domains=%d: source %d differs between runs", domains, i)
			}
		}
	}
}

// TestDomainsDecompose checks the point of multi-domain generation: the
// matcher's shard index must split a multi-domain universe into at least one
// group per domain, and no mediated GA may span domains.
func TestDomainsDecompose(t *testing.T) {
	cfg := smallCfg(40)
	cfg.Domains = 5
	cfg.PRemove = 0.3
	u, err := GenerateUniverse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := match.New(u, match.Config{Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	sh := m.NewSharded(constraint.Set{})
	groups := sh.SourceGroups()
	if len(groups) < cfg.Domains {
		t.Fatalf("got %d source groups, want ≥ %d (one per domain)", len(groups), cfg.Domains)
	}
	// Every source's domain is recoverable from its name suffix; groups must
	// be domain-pure.
	domainOf := func(id schema.SourceID) string {
		name := u.Source(id).Name
		return name[len(name)-4:]
	}
	for _, g := range groups {
		for _, s := range g[1:] {
			if domainOf(s) != domainOf(g[0]) {
				t.Fatalf("group %v mixes domains %s and %s", g, domainOf(g[0]), domainOf(s))
			}
		}
	}
}

// TestDomainVocabDisjoint checks that vocabularies never share a name across
// domains or concepts.
func TestDomainVocabDisjoint(t *testing.T) {
	v := domainVocab(7, 16, 12)
	seen := map[string]bool{}
	for d := range v {
		for _, n := range v[d] {
			if seen[n] {
				t.Fatalf("duplicate vocab name %q", n)
			}
			if len(n) != 12 {
				t.Fatalf("vocab name %q not 12 chars", n)
			}
			seen[n] = true
		}
	}
}

// TestSourceNamesMatchSprintf pins both generators' names to their fmt
// spelling, "src-%03d-b%02d" and "src-%06d-d%03d" after the NamePrefix,
// including numbers wider than the padding, and checks that streamed
// sources carry exactly those names.
func TestSourceNamesMatchSprintf(t *testing.T) {
	for _, prefix := range []string{"", "e007-"} {
		for _, i := range []int{0, 7, 999, 1000, 999999, 1000000} {
			for _, d := range []int{0, 99, 100, 999, 1000} {
				if got, want := string(bammName(nil, prefix, i, d)), prefix+fmt.Sprintf("src-%03d-b%02d", i, d); got != want {
					t.Errorf("bammName(%q, %d, %d) = %q, want %q", prefix, i, d, got, want)
				}
				if got, want := string(domainName(nil, prefix, i, d)), prefix+fmt.Sprintf("src-%06d-d%03d", i, d); got != want {
					t.Errorf("domainName(%q, %d, %d) = %q, want %q", prefix, i, d, got, want)
				}
			}
		}
	}
	for _, domains := range []int{0, 7} {
		cfg := smallCfg(120)
		cfg.Domains = domains
		cfg.NamePrefix = "e012-"
		i := 0
		err := Stream(cfg, schema.NewVocab(), func(s *source.Source, m SourceMeta) error {
			want := cfg.NamePrefix + fmt.Sprintf("src-%03d-b%02d", i, m.BaseSchema)
			if domains > 1 {
				want = cfg.NamePrefix + fmt.Sprintf("src-%06d-d%03d", i, m.BaseSchema)
			}
			if s.Name != want {
				return fmt.Errorf("domains=%d source %d: name %q, want %q", domains, i, s.Name, want)
			}
			i++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamAllocs budgets generation's allocations per source at 2 000
// sources and 64 maps, in both modes, with a yield that keeps nothing and a
// vocabulary that already holds every name. A source needs its signature
// (two allocations), its schema's id slice, its name, its characteristics
// slice, the Source itself and its origins; BAMM mode's perturbation makes
// the id and origin slices, and a conformant copy shares its base's.
func TestStreamAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		mode    string
		domains int
		budget  float64
	}{
		{"domains", 32, 8},
		{"bamm", 0, 8.5},
	} {
		cfg := smallCfg(2000)
		cfg.Domains = tc.domains
		drop := func(*source.Source, SourceMeta) error { return nil }
		vocab := schema.NewVocab()
		perRun := testing.AllocsPerRun(3, func() {
			if err := Stream(cfg, vocab, drop); err != nil {
				t.Fatal(err)
			}
		})
		if got := perRun / float64(cfg.NumSources); got > tc.budget {
			t.Errorf("%s: %.2f allocs per source, budget %v", tc.mode, got, tc.budget)
		} else {
			t.Logf("%s: %.2f allocs per source", tc.mode, got)
		}
	}
}
