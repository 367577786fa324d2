package match

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"mube/internal/constraint"
	"mube/internal/pcsa"
	"mube/internal/schema"
	"mube/internal/source"
	"mube/internal/strutil"
	"mube/internal/testutil"
)

var sigCfg = pcsa.Config{NumMaps: 64}

// universe builds a universe from attribute-name lists.
func universe(t testing.TB, schemas ...[]string) *source.Universe {
	t.Helper()
	u := source.NewUniverse(sigCfg)
	for _, attrs := range schemas {
		if _, err := u.Add(source.Uncooperative("s", schema.NewSchema(attrs...))); err != nil {
			t.Fatal(err)
		}
	}
	return u
}

func ref(s, a int) schema.AttrRef { return schema.AttrRef{Source: schema.SourceID(s), Attr: a} }

func ids(ns ...int) []schema.SourceID {
	out := make([]schema.SourceID, len(ns))
	for i, n := range ns {
		out[i] = schema.SourceID(n)
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	u := universe(t, []string{"a"})
	if _, err := New(u, Config{Theta: 1.5}); err == nil {
		t.Error("theta > 1 accepted")
	}
	if _, err := New(u, Config{Theta: -0.1}); err == nil {
		t.Error("negative theta accepted")
	}
	if _, err := New(u, Config{Beta: -2}); err == nil {
		t.Error("negative beta accepted")
	}
	m, err := New(u, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.AlmostEqual(m.Config().Theta, DefaultTheta) || m.Config().Beta != DefaultBeta {
		t.Errorf("defaults not applied: %+v", m.Config())
	}
	if !testutil.AlmostEqual(m.Theta(), DefaultTheta) {
		t.Errorf("Theta() = %v", m.Theta())
	}
}

func TestPairSim(t *testing.T) {
	u := universe(t, []string{"author", "title"}, []string{"author name"})
	m := MustNew(u, Config{})
	same := m.PairSim(ref(0, 0), ref(1, 0))
	want := strutil.TriGramJaccard.Sim("author", "author name")
	if diff := same - want; diff > 1e-6 || diff < -1e-6 {
		// The matcher stores similarities as float32; allow that rounding.
		t.Errorf("PairSim = %v, want %v", same, want)
	}
	if !testutil.AlmostEqual(m.PairSim(ref(0, 0), ref(0, 0)), 1) {
		t.Error("self-similarity must be 1")
	}
}

func TestMatchClustersIdenticalNames(t *testing.T) {
	u := universe(t,
		[]string{"author", "title"},
		[]string{"author", "price"},
		[]string{"author", "title"},
	)
	m := MustNew(u, Config{Theta: 0.5})
	res, err := m.Match(u.IDs(), constraint.Set{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatal("match failed")
	}
	// Expect an author GA spanning all three sources and a title GA spanning
	// sources 0 and 2; "price" is unmatched and pruned.
	var authorGA, titleGA *schema.GA
	for i := range res.Schema.GAs {
		g := &res.Schema.GAs[i]
		switch {
		case g.Contains(ref(0, 0)):
			authorGA = g
		case g.Contains(ref(0, 1)):
			titleGA = g
		}
	}
	if authorGA == nil || authorGA.Size() != 3 {
		t.Errorf("author GA = %v, want 3 attrs", authorGA)
	}
	if titleGA == nil || titleGA.Size() != 2 {
		t.Errorf("title GA = %v, want 2 attrs", titleGA)
	}
	if !testutil.AlmostEqual(res.Quality, 1) {
		t.Errorf("quality = %v, want 1 for identical names", res.Quality)
	}
}

func TestMatchRespectsGAValidity(t *testing.T) {
	// Both attributes of source 0 are named "keyword"; a GA may absorb only
	// one attribute per source (Definition 1).
	u := universe(t,
		[]string{"keyword", "keyword"},
		[]string{"keyword"},
		[]string{"keyword"},
	)
	m := MustNew(u, Config{Theta: 0.5})
	res, err := m.Match(u.IDs(), constraint.Set{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Schema.GAs {
		if !g.Valid() {
			t.Errorf("invalid GA in output: %v", g)
		}
	}
	if !res.Schema.Disjoint() {
		t.Error("output GAs overlap")
	}
}

func TestMatchPerGAQualityMeetsTheta(t *testing.T) {
	u := universe(t,
		[]string{"author", "book title", "publisher"},
		[]string{"author name", "title of book", "publishing house"},
		[]string{"writer", "title", "press"},
		[]string{"isbn", "subject"},
	)
	theta := 0.3
	m := MustNew(u, Config{Theta: theta})
	res, err := m.Match(u.IDs(), constraint.Set{})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range res.GAQuality {
		if q < theta {
			t.Errorf("GA %d quality %v below theta %v (no constraints given)", i, q, theta)
		}
	}
	if res.Quality < theta {
		t.Errorf("schema quality %v below theta", res.Quality)
	}
}

func TestMatchBetaFiltersSmallGAs(t *testing.T) {
	u := universe(t,
		[]string{"alpha", "omega"},
		[]string{"alpha", "omega"},
		[]string{"alpha"},
	)
	// With beta=3, the omega GA (size 2) must be dropped; alpha (size 3) kept.
	m := MustNew(u, Config{Theta: 0.5, Beta: 3})
	res, err := m.Match(u.IDs(), constraint.Set{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.Len() != 1 {
		t.Fatalf("schema = %v, want exactly the alpha GA", res.Schema)
	}
	if got := res.Schema.GAs[0].Size(); got != 3 {
		t.Errorf("surviving GA size = %d, want 3", got)
	}
}

func TestGAConstraintBridging(t *testing.T) {
	// "F name" and "Prenom" share no grams, but a GA constraint bridges the
	// semantic gap and lets the cluster keep growing on both sides (§3,
	// Figure 3 d–f).
	u := universe(t,
		[]string{"f name"},
		[]string{"prenom"},
		[]string{"first name"},
		[]string{"nom prenom"},
	)
	m := MustNew(u, Config{Theta: 0.4})

	// Without the constraint the two halves stay separate.
	res, err := m.Match(u.IDs(), constraint.Set{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Schema.GAs {
		if g.Contains(ref(0, 0)) && g.Contains(ref(1, 0)) {
			t.Fatal("f name and prenom merged without a bridge")
		}
	}

	bridge := schema.NewGA(ref(0, 0), ref(1, 0))
	res, err = m.Match(u.IDs(), constraint.Set{GAs: []schema.GA{bridge}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatal("constrained match failed")
	}
	var grown *schema.GA
	for i := range res.Schema.GAs {
		if res.Schema.GAs[i].ContainsAll(bridge) {
			grown = &res.Schema.GAs[i]
		}
	}
	if grown == nil {
		t.Fatal("constraint GA missing from output (G ⋢ M)")
	}
	// The bridge must attract both "first name" (similar to f name) and
	// "nom prenom" (similar to prenom).
	if !grown.Contains(ref(2, 0)) || !grown.Contains(ref(3, 0)) {
		t.Errorf("bridged GA = %v, want all four attributes", grown)
	}
}

func TestGAConstraintExemptFromThetaAndBeta(t *testing.T) {
	u := universe(t,
		[]string{"xyzzy"},
		[]string{"qwert"},
	)
	g := schema.NewGA(ref(0, 0), ref(1, 0))
	m := MustNew(u, Config{Theta: 0.9, Beta: 3})
	res, err := m.Match(u.IDs(), constraint.Set{GAs: []schema.GA{g}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Schema.Len() != 1 || !res.Schema.GAs[0].Equal(g) {
		t.Errorf("constraint GA should survive θ and β: %v", res.Schema)
	}
}

func TestSourceConstraintValidity(t *testing.T) {
	u := universe(t,
		[]string{"author"},
		[]string{"author"},
		[]string{"zzzzz"}, // matches nothing
	)
	m := MustNew(u, Config{Theta: 0.5})

	// Constraining source 2, whose attribute matches nothing, makes every
	// schema invalid on C → null schema, 0 quality.
	res, err := m.Match(u.IDs(), constraint.Set{Sources: ids(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || res.Quality != 0 {
		t.Errorf("expected failed match, got OK=%v quality=%v", res.OK, res.Quality)
	}

	// Constraining source 0 (which matches source 1) succeeds.
	res, err = m.Match(u.IDs(), constraint.Set{Sources: ids(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Error("expected valid match with satisfiable source constraint")
	}
}

func TestMatchRequiresRequiredSources(t *testing.T) {
	u := universe(t, []string{"a"}, []string{"b"})
	m := MustNew(u, Config{})
	if _, err := m.Match(ids(0), constraint.Set{Sources: ids(1)}); err == nil {
		t.Error("Match should reject S ⊉ C")
	}
	if _, err := m.Match(ids(0), constraint.Set{GAs: []schema.GA{schema.NewGA(ref(1, 0))}}); err == nil {
		t.Error("Match should reject S missing GA-implied source")
	}
}

// TestMatchRejectsBadIDs pins the id check of the public Match and
// Sharded.Score: an id outside the universe the matcher was built on must be
// an error naming it, not an index panic, and a repeated id must be an error,
// not a schema that puts one attribute in two GAs.
func TestMatchRejectsBadIDs(t *testing.T) {
	u := universe(t, []string{"title"}, []string{"title"}, []string{"title"})
	m := MustNew(u, Config{})
	check := func(ids []schema.SourceID, want string) {
		t.Helper()
		if _, err := m.Match(ids, constraint.Set{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Match(%v): error %v, want one containing %q", ids, err, want)
		}
		if _, _, err := m.NewSharded(constraint.Set{}).Score(ids); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Score(%v): error %v, want one containing %q", ids, err, want)
		}
	}
	check(ids(0, 7), "source id 7 outside")
	check(ids(-1), "source id -1 outside")
	check(ids(2, 0, 9), "source id 9 outside")
	check(ids(0, 0, 1, 2), "source id 0 listed twice")
	check(ids(2, 1, 2), "source id 2 listed twice")
	// Unsorted distinct ids are a valid source set.
	if _, err := m.Match(ids(2, 0, 1), constraint.Set{}); err != nil {
		t.Errorf("Match(2, 0, 1): %v", err)
	}
	// A source added to the universe after the matcher was built has no
	// similarity ids in it.
	if _, err := u.Add(source.Uncooperative("s", schema.NewSchema("title"))); err != nil {
		t.Fatal(err)
	}
	check(ids(0, 3), "source id 3 outside")
}

// TestMatchValidatesConstraints pins Match's constraint check: a GA
// constraint naming a missing attribute, an empty GA constraint and two GA
// constraints sharing an attribute are errors, not an index panic, a schema
// holding an empty GA, or one attribute in two GAs (Definition 2).
func TestMatchValidatesConstraints(t *testing.T) {
	u := universe(t, []string{"title"}, []string{"title", "author"}, []string{"title"})
	m := MustNew(u, Config{})
	for _, tc := range []struct {
		name string
		gas  []schema.GA
		want string
	}{
		{"missing attribute", []schema.GA{schema.NewGA(ref(0, 5), ref(1, 0))}, "attribute s0.a5 out of range"},
		{"empty GA", []schema.GA{schema.NewGA()}, "not a valid GA"},
		{"shared attribute", []schema.GA{schema.NewGA(ref(0, 0), ref(1, 0)), schema.NewGA(ref(0, 0), ref(2, 0))}, "share an attribute"},
	} {
		res, err := m.Match(ids(0, 1, 2), constraint.Set{GAs: tc.gas})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Match = (%+v, %v), want an error containing %q", tc.name, res, err, tc.want)
		}
	}
}

func TestMatchEmptySelection(t *testing.T) {
	u := universe(t, []string{"a"}, []string{"b"})
	m := MustNew(u, Config{})
	res, err := m.Match(nil, constraint.Set{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Schema.Len() != 0 || res.Quality != 0 {
		t.Errorf("empty selection: %+v", res)
	}
}

func TestMatchTransitiveGrowth(t *testing.T) {
	// a-b similar, b-c similar, a-c dissimilar: max linkage grows the chain
	// across rounds (merge a+b first, then attract c via b).
	u := universe(t,
		[]string{"publication year"},
		[]string{"publication date"},
		[]string{"pub date"},
	)
	m := MustNew(u, Config{Theta: 0.45})
	ab := m.PairSim(ref(0, 0), ref(1, 0))
	bc := m.PairSim(ref(1, 0), ref(2, 0))
	ac := m.PairSim(ref(0, 0), ref(2, 0))
	if !(ab >= 0.45 && bc >= 0.45 && ac < 0.45) {
		t.Skipf("test premise broken: ab=%v bc=%v ac=%v", ab, bc, ac)
	}
	res, err := m.Match(u.IDs(), constraint.Set{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.Len() != 1 || res.Schema.GAs[0].Size() != 3 {
		t.Errorf("expected one 3-attribute GA, got %v", res.Schema)
	}
}

func TestMatchDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var schemas [][]string
	vocab := []string{"title", "book title", "author", "author name", "price", "price range", "isbn", "keyword"}
	for i := 0; i < 12; i++ {
		n := 1 + r.Intn(4)
		attrs := make([]string, 0, n)
		seen := map[string]bool{}
		for len(attrs) < n {
			w := vocab[r.Intn(len(vocab))]
			if !seen[w] {
				seen[w] = true
				attrs = append(attrs, w)
			}
		}
		schemas = append(schemas, attrs)
	}
	u := universe(t, schemas...)
	m := MustNew(u, Config{Theta: 0.4})
	first, err := m.Match(u.IDs(), constraint.Set{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := m.Match(u.IDs(), constraint.Set{})
		if err != nil {
			t.Fatal(err)
		}
		if again.Schema.String() != first.Schema.String() || !testutil.AlmostEqual(again.Quality, first.Quality) {
			t.Fatal("Match is not deterministic")
		}
	}
}

func TestAvgLinkage(t *testing.T) {
	u := universe(t,
		[]string{"author"},
		[]string{"author"},
		[]string{"author name of record"},
	)
	mMax := MustNew(u, Config{Theta: 0.3, Linkage: MaxLinkage})
	mAvg := MustNew(u, Config{Theta: 0.3, Linkage: AvgLinkage})
	rMax, _ := mMax.Match(u.IDs(), constraint.Set{})
	rAvg, _ := mAvg.Match(u.IDs(), constraint.Set{})
	// Both should produce valid disjoint schemas; max linkage absorbs at
	// least as many attributes as avg.
	count := func(m schema.Mediated) int {
		n := 0
		for _, g := range m.GAs {
			n += g.Size()
		}
		return n
	}
	if count(rMax.Schema) < count(rAvg.Schema) {
		t.Errorf("max linkage (%d attrs) absorbed fewer than avg (%d)", count(rMax.Schema), count(rAvg.Schema))
	}
	if MaxLinkage.String() != "max" || AvgLinkage.String() != "avg" {
		t.Error("Linkage.String broken")
	}
}

func TestGAQualitySingleton(t *testing.T) {
	u := universe(t, []string{"a"})
	m := MustNew(u, Config{})
	if q := m.GAQuality(schema.NewGA(ref(0, 0))); !testutil.AlmostEqual(q, 1) {
		t.Errorf("singleton GA quality = %v, want 1", q)
	}
}

// TestMatchPropertyInvariants fuzzes random universes and checks the core
// Match invariants: disjoint valid GAs, G ⊑ M, and per-GA quality ≥ θ for
// non-constraint GAs.
func TestMatchPropertyInvariants(t *testing.T) {
	vocab := []string{
		"title", "book title", "name of book", "author", "author name",
		"writer", "price", "price range", "keyword", "keywords", "isbn",
		"publisher", "subject", "category", "zebra", "quux",
	}
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		var schemas [][]string
		n := 3 + r.Intn(10)
		for i := 0; i < n; i++ {
			k := 1 + r.Intn(5)
			seen := map[string]bool{}
			var attrs []string
			for len(attrs) < k {
				w := vocab[r.Intn(len(vocab))]
				if !seen[w] {
					seen[w] = true
					attrs = append(attrs, w)
				}
			}
			schemas = append(schemas, attrs)
		}
		u := universe(t, schemas...)
		theta := 0.3 + r.Float64()*0.5
		m := MustNew(u, Config{Theta: theta})

		var cons constraint.Set
		if r.Intn(2) == 0 && n >= 2 {
			// Random (valid) GA constraint across two sources.
			s1, s2 := 0, 1+r.Intn(n-1)
			cons.GAs = []schema.GA{schema.NewGA(
				ref(s1, r.Intn(len(schemas[s1]))),
				ref(s2, r.Intn(len(schemas[s2]))),
			)}
		}
		res, err := m.Match(u.IDs(), cons)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.OK {
			continue
		}
		if !res.Schema.Disjoint() {
			t.Fatalf("seed %d: overlapping GAs", seed)
		}
		constraintGAs := schema.NewMediated(cons.GAs...)
		if !res.Schema.Subsumes(constraintGAs) {
			t.Fatalf("seed %d: G ⋢ M", seed)
		}
		for i, g := range res.Schema.GAs {
			if !g.Valid() {
				t.Fatalf("seed %d: invalid GA %v", seed, g)
			}
			isConstraint := false
			for _, cg := range cons.GAs {
				if g.ContainsAll(cg) {
					isConstraint = true
				}
			}
			if !isConstraint {
				if res.GAQuality[i] < theta {
					t.Fatalf("seed %d: GA %v quality %v < theta %v", seed, g, res.GAQuality[i], theta)
				}
				if g.Size() < DefaultBeta {
					t.Fatalf("seed %d: GA %v smaller than beta", seed, g)
				}
			}
		}
	}
}

// TestRebindMatchesFreshBuild churns a universe (drop, drift, arrival) and
// checks that Rebind produces clusterings and qualities bit-identical to a
// cold New over the same universe — the contract the watch loop's delta
// re-clustering relies on.
func TestRebindMatchesFreshBuild(t *testing.T) {
	u := universe(t,
		[]string{"title", "author", "price"},
		[]string{"book title", "writer"},
		[]string{"keyword"},
		[]string{"title", "cost"},
	)
	m, err := New(u, Config{Theta: 0.3})
	if err != nil {
		t.Fatal(err)
	}

	// Churn: source 2 dies, source 1 drifts to new names, a new source
	// arrives with a mix of known and novel names.
	if _, err := u.Remove([]schema.SourceID{2}); err != nil {
		t.Fatal(err)
	}
	u.Source(1).Schema = schema.NewSchema("booktitle", "author name")
	if _, err := u.Add(source.Uncooperative("new", schema.NewSchema("title", "publisher"))); err != nil {
		t.Fatal(err)
	}

	warm, err := m.Rebind(u)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := New(u, Config{Theta: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Universe() != u {
		t.Fatal("Rebind did not bind the new universe")
	}

	all := u.IDs()
	for i := 0; i < len(all); i++ {
		for _, cons := range []constraint.Set{{}, {GAs: []schema.GA{schema.NewGA(ref(0, 0), ref(2, 0))}}} {
			if !cons.Empty() && i < 2 {
				continue // constraint requires sources 0 and 2
			}
			rw, err := warm.Match(all[:i+1], cons)
			if err != nil {
				t.Fatal(err)
			}
			rc, err := cold.Match(all[:i+1], cons)
			if err != nil {
				t.Fatal(err)
			}
			//mube:vet-ignore floatcmp — the Rebind contract is bit-identical, not approximate
			if rw.OK != rc.OK || math.Float64bits(rw.Quality) != math.Float64bits(rc.Quality) {
				t.Fatalf("subset %v cons %v: warm (%v, %v) != cold (%v, %v)",
					all[:i+1], cons, rw.OK, rw.Quality, rc.OK, rc.Quality)
			}
			if rw.Schema.String() != rc.Schema.String() {
				t.Fatalf("subset %v: warm schema %v != cold schema %v", all[:i+1], rw.Schema, rc.Schema)
			}
		}
	}

	// Every attribute pair must agree bit-for-bit, old names and new.
	for _, a := range all {
		sa := u.Source(a)
		for ai := 0; ai < sa.Schema.Len(); ai++ {
			for _, b := range all {
				sb := u.Source(b)
				for bi := 0; bi < sb.Schema.Len(); bi++ {
					pw := warm.PairSim(schema.AttrRef{Source: a, Attr: ai}, schema.AttrRef{Source: b, Attr: bi})
					pc := cold.PairSim(schema.AttrRef{Source: a, Attr: ai}, schema.AttrRef{Source: b, Attr: bi})
					if math.Float64bits(pw) != math.Float64bits(pc) {
						t.Fatalf("PairSim(s%d.a%d, s%d.a%d): warm %v != cold %v", a, ai, b, bi, pw, pc)
					}
				}
			}
		}
	}

	// The original matcher must be untouched by the rebind: churn introduced
	// new names, so the rebound interning is strictly larger.
	if len(m.names) >= len(warm.names) || len(m.ids) >= len(warm.ids) {
		t.Errorf("Rebind mutated receiver's interning: %d names before, %d after", len(m.names), len(warm.names))
	}

	// A no-new-names rebind must share the table wholesale.
	again, err := warm.Rebind(u)
	if err != nil {
		t.Fatal(err)
	}
	if &again.table[0] != &warm.table[0] {
		t.Error("rebind with no new names rebuilt the table")
	}
}

// TestRebindHybridFallsBackToNew pins the documented hybrid behavior: a
// data-weighted matcher rebinds by full rebuild and still scores like New.
func TestRebindHybridFallsBackToNew(t *testing.T) {
	u := hybridUniverse(t)
	m, err := New(u, Config{Theta: 0.3, DataWeight: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := m.Rebind(u)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := New(u, Config{Theta: 0.3, DataWeight: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	a, b := schema.AttrRef{Source: 0, Attr: 0}, schema.AttrRef{Source: 1, Attr: 0}
	if math.Float64bits(warm.PairSim(a, b)) != math.Float64bits(cold.PairSim(a, b)) {
		t.Errorf("hybrid rebind PairSim %v != cold %v", warm.PairSim(a, b), cold.PairSim(a, b))
	}
}
