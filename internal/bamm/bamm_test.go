package bamm

import (
	"testing"

	"mube/internal/strutil"
)

func TestCorpusShape(t *testing.T) {
	if NumSchemas() != 50 {
		t.Errorf("NumSchemas = %d, want 50 (paper §7.1)", NumSchemas())
	}
	if len(Concepts()) != NumConcepts || NumConcepts != 14 {
		t.Errorf("concepts = %d, want 14 (paper §7.3)", len(Concepts()))
	}
	for i, s := range Schemas() {
		if s.Len() < 2 {
			t.Errorf("schema %d has %d attributes, want ≥ 2", i, s.Len())
		}
	}
}

// TestBaseMatchesSchemasAndConceptOf pins the shared tables Base hands out:
// the attributes are Schemas' and each concept is ConceptOf's, -1 off-domain.
func TestBaseMatchesSchemasAndConceptOf(t *testing.T) {
	for i, s := range Schemas() {
		attrs, concepts := Base(i)
		if len(attrs) != s.Len() || len(concepts) != s.Len() {
			t.Fatalf("schema %d: Base has %d names and %d concepts, schema %d attributes", i, len(attrs), len(concepts), s.Len())
		}
		for a, name := range attrs {
			want := -1
			if ci, ok := ConceptOf(name); ok {
				want = ci
			}
			if name != s.Name(a) || concepts[a] != want {
				t.Errorf("schema %d attribute %d: Base says (%q, %d), want (%q, %d)", i, a, name, concepts[a], s.Name(a), want)
			}
		}
	}
}

func TestNoDuplicateAttributesWithinSchema(t *testing.T) {
	for i, s := range Schemas() {
		seen := map[string]bool{}
		for j := 0; j < s.Len(); j++ {
			n := strutil.Normalize(s.Name(j))
			if seen[n] {
				t.Errorf("schema %d repeats attribute %q", i, n)
			}
			seen[n] = true
		}
	}
}

func TestSchemaAttributesDistinctConcepts(t *testing.T) {
	// A query interface asks for each concept at most once; two attributes
	// of one schema must not express the same concept (this also keeps
	// every seeded GA valid during clustering).
	for i, s := range Schemas() {
		seen := map[int]string{}
		for j := 0; j < s.Len(); j++ {
			ci, ok := ConceptOf(s.Name(j))
			if !ok {
				continue
			}
			if prev, dup := seen[ci]; dup {
				t.Errorf("schema %d expresses concept %s twice: %q and %q",
					i, ConceptName(ci), prev, s.Name(j))
			}
			seen[ci] = s.Name(j)
		}
	}
}

func TestVariantsBelongToTheirConcept(t *testing.T) {
	for ci, c := range Concepts() {
		for _, v := range c.Variants {
			got, ok := ConceptOf(v)
			if !ok || got != ci {
				t.Errorf("ConceptOf(%q) = (%d,%v), want (%d,true)", v, got, ok, ci)
			}
		}
	}
}

func TestVariantsAreUniqueAcrossConcepts(t *testing.T) {
	seen := map[string]int{}
	for ci, c := range Concepts() {
		for _, v := range c.Variants {
			n := strutil.Normalize(v)
			if prev, dup := seen[n]; dup && prev != ci {
				t.Errorf("variant %q claimed by concepts %s and %s", v, ConceptName(prev), ConceptName(ci))
			}
			seen[n] = ci
		}
	}
}

func TestConceptOfUnknown(t *testing.T) {
	for _, name := range []string{"zeppelin", "engine size", "", "destination"} {
		if _, ok := ConceptOf(name); ok {
			t.Errorf("ConceptOf(%q) claims a concept", name)
		}
	}
	// Normalization applies: case and underscores don't matter.
	if ci, ok := ConceptOf("Author_Name"); !ok || ci != ConceptAuthor {
		t.Errorf("ConceptOf(Author_Name) = (%d,%v)", ci, ok)
	}
}

func TestEveryConceptAppearsInCorpus(t *testing.T) {
	counts := make(map[int]int)
	for _, s := range Schemas() {
		for j := 0; j < s.Len(); j++ {
			if ci, ok := ConceptOf(s.Name(j)); ok {
				counts[ci]++
			}
		}
	}
	for ci := 0; ci < NumConcepts; ci++ {
		// Every concept must be expressed by at least two schemas, or no
		// valid GA (β=2) could ever capture it.
		if counts[ci] < 2 {
			t.Errorf("concept %s appears %d times, want ≥ 2", ConceptName(ci), counts[ci])
		}
	}
}

func TestIntraConceptConnectivityAtTheta(t *testing.T) {
	// Concept GAs primarily form through *identical* variant names repeated
	// across sources (similarity 1), but the corpus should also offer a
	// healthy number of distinct-variant pairs that clear θ = 0.5 so that
	// multi-variant GAs arise. Short names ("title", "isbn") intentionally
	// fall below the threshold against their long variants — those are the
	// paper's bridge cases for GA constraints.
	sim := strutil.TriGramJaccard
	connected := 0
	for _, c := range Concepts() {
		found := false
		for i := 0; i < len(c.Variants) && !found; i++ {
			for j := i + 1; j < len(c.Variants) && !found; j++ {
				if sim.Sim(c.Variants[i], c.Variants[j]) >= 0.5 {
					found = true
				}
			}
		}
		if found {
			connected++
		}
	}
	if connected < 12 {
		t.Errorf("only %d/%d concepts have a θ=0.5 variant pair, want ≥ 12", connected, NumConcepts)
	}
}

func TestCrossConceptSeparationAtTheta(t *testing.T) {
	// Variants of different concepts must stay below θ = 0.5, or clustering
	// would produce false GAs the paper says never occur.
	sim := strutil.TriGramJaccard
	cs := Concepts()
	for a := 0; a < len(cs); a++ {
		for b := a + 1; b < len(cs); b++ {
			for _, va := range cs[a].Variants {
				for _, vb := range cs[b].Variants {
					if s := sim.Sim(va, vb); s >= 0.5 {
						t.Errorf("cross-concept pair %q (%s) / %q (%s) has sim %.2f ≥ 0.5",
							va, cs[a].Name, vb, cs[b].Name, s)
					}
				}
			}
		}
	}
}
