package synth

import (
	"math"
	"testing"

	"mube/internal/bamm"
	"mube/internal/pcsa"
	"mube/internal/schema"
	"mube/internal/testutil"
)

// tiny returns a fast test configuration.
func tiny(n int, seed int64) Config {
	c := Scaled(0.005) // cardinalities ≈ [50, 5000]
	c.NumSources = n
	c.Seed = seed
	c.Sig = pcsa.Config{NumMaps: 64}
	return c
}

func TestGenerateShape(t *testing.T) {
	res, err := Generate(tiny(120, 7))
	if err != nil {
		t.Fatal(err)
	}
	u := res.Universe
	if u.Len() != 120 {
		t.Fatalf("universe size = %d", u.Len())
	}
	if len(res.Conformant) != bamm.NumSchemas() {
		t.Errorf("conformant sources = %d, want %d", len(res.Conformant), bamm.NumSchemas())
	}
	// The first 50 sources are exact copies of the base schemas.
	base := bamm.Schemas()
	for _, id := range res.Conformant {
		got := u.Source(id).Schema
		want := base[res.BaseSchema[id]]
		if got.String() != want.String() {
			t.Errorf("conformant source %d schema %v != base %v", id, got, want)
		}
	}
	for i := 0; i < u.Len(); i++ {
		s := u.Source(schema.SourceID(i))
		if !s.Cooperative() {
			t.Errorf("source %d not cooperative", i)
		}
		if s.Schema.Len() == 0 {
			t.Errorf("source %d has empty schema", i)
		}
		if _, ok := s.Characteristic("mttf"); !ok {
			t.Errorf("source %d missing mttf", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(tiny(60, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(tiny(60, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		sa, sb := a.Universe.Source(schema.SourceID(i)), b.Universe.Source(schema.SourceID(i))
		if sa.Schema.String() != sb.Schema.String() {
			t.Fatalf("source %d schemas differ across runs", i)
		}
		if sa.Cardinality != sb.Cardinality {
			t.Fatalf("source %d cardinalities differ", i)
		}
		if !testutil.AlmostEqual(sa.Signature.Estimate(), sb.Signature.Estimate()) {
			t.Fatalf("source %d signatures differ", i)
		}
		ma, _ := sa.Characteristic("mttf")
		mb, _ := sb.Characteristic("mttf")
		if !testutil.AlmostEqual(ma, mb) {
			t.Fatalf("source %d mttf differs", i)
		}
	}
	// A different seed changes the universe.
	c, err := Generate(tiny(60, 4))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 50; i < 60; i++ { // perturbed region
		if a.Universe.Source(schema.SourceID(i)).Schema.String() != c.Universe.Source(schema.SourceID(i)).Schema.String() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical perturbations")
	}
}

func TestCardinalityRange(t *testing.T) {
	cfg := tiny(200, 5)
	res, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var atMin int
	for i := 0; i < res.Universe.Len(); i++ {
		c := res.Universe.Source(schema.SourceID(i)).Cardinality
		if c < cfg.MinCard || c > cfg.MaxCard {
			t.Errorf("source %d cardinality %d outside [%d,%d]", i, c, cfg.MinCard, cfg.MaxCard)
		}
		if c < cfg.MinCard*2 {
			atMin++
		}
	}
	// Zipf: most sources sit near the minimum.
	if atMin < res.Universe.Len()/2 {
		t.Errorf("only %d/%d sources near MinCard; expected Zipf concentration", atMin, res.Universe.Len())
	}
}

func TestSpecialtyAssignment(t *testing.T) {
	res, err := Generate(tiny(40, 2))
	if err != nil {
		t.Fatal(err)
	}
	spec := 0
	for _, s := range res.Specialty {
		if s {
			spec++
		}
	}
	if spec != 20 {
		t.Errorf("specialty sources = %d/40, want half", spec)
	}
}

func TestPerturbationKeepsSchemasNonEmptyAndDeduped(t *testing.T) {
	res, err := Generate(tiny(300, 11))
	if err != nil {
		t.Fatal(err)
	}
	for i := 50; i < res.Universe.Len(); i++ {
		s := res.Universe.Source(schema.SourceID(i)).Schema
		if s.Len() == 0 {
			t.Fatalf("perturbed source %d empty", i)
		}
		seen := map[string]bool{}
		for j := 0; j < s.Len(); j++ {
			if seen[s.Name(j)] {
				t.Errorf("source %d repeats attribute %q", i, s.Name(j))
			}
			seen[s.Name(j)] = true
		}
	}
}

func TestNoiseWordsAreOffDomain(t *testing.T) {
	for _, w := range NoiseWords() {
		if _, ok := bamm.ConceptOf(w); ok {
			t.Errorf("noise word %q collides with a BAMM concept variant", w)
		}
	}
	if len(NoiseWords()) < 100 {
		t.Errorf("noise word list too small: %d", len(NoiseWords()))
	}
}

func TestValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NumSources = 0 },
		func(c *Config) { c.MinCard = 0 },
		func(c *Config) { c.MaxCard = c.MinCard - 1 },
		func(c *Config) { c.PoolSize = 1 },
		func(c *Config) { c.ZipfS = 0 },
		func(c *Config) { c.PRemove = 1.5 },
		func(c *Config) { c.PReplace = -0.1 },
		func(c *Config) { c.SpecialtyPct = 2 },
	}
	for i, mutate := range bad {
		c := tiny(10, 1)
		mutate(&c)
		if _, err := Generate(c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSignatureEstimatesTrackCardinality(t *testing.T) {
	res, err := Generate(tiny(30, 9))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.Universe.Len(); i++ {
		s := res.Universe.Source(schema.SourceID(i))
		est := s.Signature.Estimate()
		// Tuples are sampled with replacement from the pool, so the number
		// of distinct tuples is at most the cardinality (and the estimate
		// is noisy with 64 bitmaps).
		if est > float64(s.Cardinality)*1.6 {
			t.Errorf("source %d: distinct estimate %.0f far above cardinality %d", i, est, s.Cardinality)
		}
		if est <= 0 {
			t.Errorf("source %d: empty signature", i)
		}
	}
}

func TestConceptSources(t *testing.T) {
	res, err := Generate(tiny(50, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Source 0 is base schema 0: {title, author, isbn}.
	counts := ConceptSources(res.Universe, []schema.SourceID{0})
	for _, ci := range []int{bamm.ConceptTitle, bamm.ConceptAuthor, bamm.ConceptISBN} {
		if counts[ci] != 1 {
			t.Errorf("concept %s count = %d, want 1", bamm.ConceptName(ci), counts[ci])
		}
	}
	if len(counts) != 3 {
		t.Errorf("concept count map = %v, want 3 entries", counts)
	}
	// Two copies of schema 0 (sources 0 and 50 share base when N>50 —
	// verify via BaseSchema instead of assuming).
	if res.BaseSchema[0] != 0 {
		t.Errorf("BaseSchema[0] = %d", res.BaseSchema[0])
	}
}

func TestScaled(t *testing.T) {
	c := Scaled(0.01)
	if c.MinCard != 100 || c.MaxCard != 10000 {
		t.Errorf("Scaled(0.01) cards = [%d,%d]", c.MinCard, c.MaxCard)
	}
	if c.PoolSize != 40000 {
		t.Errorf("Scaled(0.01) pool = %d", c.PoolSize)
	}
	// Floors keep extreme factors usable.
	tinyc := Scaled(1e-9)
	if tinyc.MinCard < 16 || tinyc.MaxCard < 64 {
		t.Errorf("Scaled floor broken: %+v", tinyc)
	}
	if math.IsNaN(float64(tinyc.PoolSize)) {
		t.Error("pool NaN")
	}
}

func TestAttrSignaturesGeneration(t *testing.T) {
	c := tiny(60, 4)
	c.AttrSignatures = true
	res, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.Universe.Len(); i++ {
		s := res.Universe.Source(schema.SourceID(i))
		if len(s.AttrSignatures) != s.Schema.Len() {
			t.Fatalf("source %d: %d sketches for %d attrs", i, len(s.AttrSignatures), s.Schema.Len())
		}
		for a, sig := range s.AttrSignatures {
			if sig == nil || sig.Empty() {
				t.Fatalf("source %d attr %d: empty sketch", i, a)
			}
		}
	}
	// Same-concept attributes across sources overlap in value space far
	// more than different-concept ones. Sources 0 and 50 share base schema
	// 0 ({title, author, isbn}); compare their biggest-cardinality pair.
	s0, s50 := res.Universe.Source(0), res.Universe.Source(50)
	if res.BaseSchema[50] != 0 {
		t.Skip("source 50 not a schema-0 derivative at this seed")
	}
	// Find the title attribute in both (50 may be perturbed).
	find := func(sid schema.SourceID, concept int) int {
		for a, ci := range res.AttrOrigins[sid] {
			if ci == concept {
				return a
			}
		}
		return -1
	}
	a0, a50 := find(0, bamm.ConceptTitle), find(50, bamm.ConceptTitle)
	if a0 < 0 || a50 < 0 {
		t.Skip("title dropped by perturbation at this seed")
	}
	same, err := s0.AttrSignatures[a0].Jaccard(s50.AttrSignatures[a50])
	if err != nil {
		t.Fatal(err)
	}
	b0 := find(0, bamm.ConceptAuthor)
	cross, err := s0.AttrSignatures[b0].Jaccard(s50.AttrSignatures[a50])
	if err != nil {
		t.Fatal(err)
	}
	if same <= cross {
		t.Errorf("same-concept Jaccard %v not above cross-concept %v", same, cross)
	}
}

func TestAttrOriginsTrackRenames(t *testing.T) {
	c := tiny(200, 8)
	c.PReplace = 0.5
	res, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	renamed := 0
	for i := 50; i < res.Universe.Len(); i++ {
		s := res.Universe.Source(schema.SourceID(i))
		for a := 0; a < s.Schema.Len(); a++ {
			origin := res.AttrOrigins[i][a]
			_, byName := bamm.ConceptOf(s.Schema.Name(a))
			if origin >= 0 && !byName {
				renamed++ // noise name, real concept behind it
			}
			if byName {
				ci, _ := bamm.ConceptOf(s.Schema.Name(a))
				if origin != ci {
					t.Fatalf("source %d attr %d: name says %d, origin says %d", i, a, ci, origin)
				}
			}
		}
	}
	if renamed < 50 {
		t.Errorf("only %d renamed attributes at PReplace=0.5; perturbation not tracking origins?", renamed)
	}
}

// TestNamePrefixOnlyRenames: the prefix must change source names and nothing
// else — name formatting draws nothing from the RNG, so both BAMM and
// multi-domain generation stay draw-for-draw identical.
func TestNamePrefixOnlyRenames(t *testing.T) {
	for _, domains := range []int{0, 3} {
		cfg := tiny(12, 5)
		cfg.Domains = domains
		plain, err := GenerateUniverse(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.NamePrefix = "e07-"
		prefixed, err := GenerateUniverse(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Len() != prefixed.Len() {
			t.Fatalf("domains=%d: len %d vs %d", domains, plain.Len(), prefixed.Len())
		}
		for i := range plain.Sources() {
			a, b := plain.Source(schema.SourceID(i)), prefixed.Source(schema.SourceID(i))
			if b.Name != "e07-"+a.Name {
				t.Fatalf("domains=%d source %d: name %q, want %q", domains, i, b.Name, "e07-"+a.Name)
			}
			if a.Cardinality != b.Cardinality || a.Schema.String() != b.Schema.String() {
				t.Fatalf("domains=%d source %d: prefix perturbed generation: %+v vs %+v", domains, i, a, b)
			}
			if (a.Signature == nil) != (b.Signature == nil) {
				t.Fatalf("domains=%d source %d: signature presence differs", domains, i)
			}
			if a.Signature != nil && math.Float64bits(a.Signature.Estimate()) != math.Float64bits(b.Signature.Estimate()) {
				t.Fatalf("domains=%d source %d: signature estimate differs", domains, i)
			}
		}
	}
}
