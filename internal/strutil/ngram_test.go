package strutil

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"mube/internal/testutil"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Author_Name", "author name"},
		{"  after  date ", "after date"},
		{"ISBN-13", "isbn 13"},
		{"Keyword", "keyword"},
		{"", ""},
		{"___", ""},
		{"Your Town!", "your town"},
		{"PubYear2004", "pubyear2004"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTokens(t *testing.T) {
	got := Tokens("Event_Name (Type)")
	want := []string{"event", "name", "type"}
	if len(got) != len(want) {
		t.Fatalf("Tokens = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestNGramsBasic(t *testing.T) {
	g := NGrams("ab", 3) // padded: ##ab## → ##a, #ab, ab#, b##
	want := []string{"##a", "#ab", "ab#", "b##"}
	if len(g) != len(want) {
		t.Fatalf("got %d grams %v, want %d", len(g), g, len(want))
	}
	for _, w := range want {
		if _, ok := g[w]; !ok {
			t.Errorf("missing gram %q", w)
		}
	}
}

func TestNGramsDegenerate(t *testing.T) {
	if g := NGrams("abc", 0); g != nil {
		t.Errorf("NGrams with n=0 should be nil, got %v", g)
	}
	if g := NGrams("", 3); len(g) != 2 {
		// "####" yields grams ###, ###... actually "" normalizes to "" so padded
		// is "####" giving {"###"} plus duplicates collapsed: positions 0 and 1
		// both "###" wait: "##"+""+"##" = "####", grams: ###, ### → set size 1.
		if len(g) != 1 {
			t.Errorf("NGrams(\"\",3) set size = %d, want 1", len(g))
		}
	}
}

func TestJaccardIdentityAndDisjoint(t *testing.T) {
	if s := TriGramJaccard.Sim("author", "author"); !testutil.AlmostEqual(s, 1) {
		t.Errorf("identical names: sim = %v, want 1", s)
	}
	if s := TriGramJaccard.Sim("xyz", "qpw"); s != 0 {
		t.Errorf("disjoint names: sim = %v, want 0", s)
	}
}

func TestSimilarNamesScoreAboveDissimilar(t *testing.T) {
	for _, m := range Measures() {
		same := m.Sim("author name", "author")
		diff := m.Sim("author name", "price range")
		if same <= diff {
			t.Errorf("%s: sim(author name, author)=%v not > sim(author name, price range)=%v",
				m.Name(), same, diff)
		}
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"book", "back", 2},
		{"same", "same", 0},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestJaroWinklerKnownValues(t *testing.T) {
	// Classic reference pair: MARTHA vs MARHTA ≈ 0.9611.
	got := JaroWinkler("martha", "marhta")
	if got < 0.96 || got > 0.9625 {
		t.Errorf("JaroWinkler(martha, marhta) = %v, want ≈0.9611", got)
	}
	if !testutil.AlmostEqual(JaroWinkler("abc", "abc"), 1) {
		t.Error("identical strings must score 1")
	}
}

// randomName produces a printable random attribute-like name.
func randomName(r *rand.Rand) string {
	const alpha = "abcdefghijklmnopqrstuvwxyz _"
	n := r.Intn(12)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(alpha[r.Intn(len(alpha))])
	}
	return b.String()
}

func TestSimilarityProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, m := range Measures() {
		m := m
		// Symmetry and range for random inputs.
		prop := func(seed int64) bool {
			rr := rand.New(rand.NewSource(seed))
			a, b := randomName(rr), randomName(rr)
			ab, ba := m.Sim(a, b), m.Sim(b, a)
			if !testutil.AlmostEqual(ab, ba) {
				t.Logf("%s not symmetric on %q,%q: %v vs %v", m.Name(), a, b, ab, ba)
				return false
			}
			return ab >= 0 && ab <= 1
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
		// Identity on non-empty strings scores 1 (token/gram measures need
		// at least one token).
		for i := 0; i < 50; i++ {
			s := randomName(r)
			if Normalize(s) == "" {
				continue
			}
			if got := m.Sim(s, s); got < 0.999 {
				t.Errorf("%s: Sim(%q,%q) = %v, want 1", m.Name(), s, s, got)
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, m := range Measures() {
		if got := ByName(m.Name()); got == nil || got.Name() != m.Name() {
			t.Errorf("ByName(%q) failed round-trip", m.Name())
		}
	}
	if ByName("no-such-measure") != nil {
		t.Error("ByName of unknown measure should be nil")
	}
}

func TestSetCoefficients(t *testing.T) {
	a := map[string]struct{}{"x": {}, "y": {}}
	b := map[string]struct{}{"y": {}, "z": {}, "w": {}}
	if got := JaccardSets(a, b); !testutil.AlmostEqual(got, 0.25) {
		t.Errorf("Jaccard = %v, want 0.25", got)
	}
	if got := DiceSets(a, b); !testutil.AlmostEqual(got, 0.4) {
		t.Errorf("Dice = %v, want 0.4", got)
	}
	if got := OverlapSets(a, b); !testutil.AlmostEqual(got, 0.5) {
		t.Errorf("Overlap = %v, want 0.5", got)
	}
	empty := map[string]struct{}{}
	if JaccardSets(empty, empty) != 0 || DiceSets(empty, empty) != 0 || OverlapSets(empty, a) != 0 {
		t.Error("empty-set coefficients must be 0")
	}
}

// TestGramSetsMatchNGrams checks the interned gram sets against NGrams:
// every name's set and every pair's intersection have the sizes of their
// NGrams counterparts — the counts the name-table fill scores from — and
// the ids are sorted and dense.
func TestGramSetsMatchNGrams(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	names := []string{"", "a", "ab", "aaaa", "author name", "author", "a b"}
	for i := 0; i < 40; i++ {
		names = append(names, Normalize(randomName(r)))
	}
	for _, n := range []int{0, 1, 2, 3, 5} {
		off, ids, grams := GramSets(names, n)
		used := make(map[int32]bool)
		for i, name := range names {
			set := ids[off[i]:off[i+1]]
			if len(set) != len(NGrams(name, n)) {
				t.Fatalf("n=%d %q: %d ids, %d grams", n, name, len(set), len(NGrams(name, n)))
			}
			for k, id := range set {
				if k > 0 && set[k-1] >= id {
					t.Fatalf("n=%d %q: ids %v not strictly ascending", n, name, set)
				}
				used[id] = true
			}
			for j := 0; j < i; j++ {
				other := ids[off[j]:off[j+1]]
				inter := 0
				for _, id := range set {
					if slices.Contains(other, id) {
						inter++
					}
				}
				if want := setOverlap(NGrams(name, n), NGrams(names[j], n)); inter != want {
					t.Fatalf("n=%d %q∩%q: %d shared ids, %d shared grams", n, name, names[j], inter, want)
				}
			}
		}
		for id := int32(0); int(id) < grams; id++ {
			if !used[id] {
				t.Fatalf("n=%d: id %d of %d unused", n, id, grams)
			}
		}
		if len(used) != grams {
			t.Fatalf("n=%d: %d ids used, %d reported", n, len(used), grams)
		}
	}
}

// TestCountScoresMatchSets pins the count forms to the set forms bit for
// bit, empty sets included.
func TestCountScoresMatchSets(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		a, b := NGrams(randomName(r), 3), NGrams(randomName(r), 3)
		if i%50 == 0 {
			a = map[string]struct{}{}
		}
		inter := setOverlap(a, b)
		if x, y := JaccardSets(a, b), JaccardCount(inter, len(a), len(b)); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("Jaccard %v vs count form %v", x, y)
		}
		if x, y := DiceSets(a, b), DiceCount(inter, len(a), len(b)); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("Dice %v vs count form %v", x, y)
		}
	}
}

func TestGramMeasureNames(t *testing.T) {
	cases := []struct {
		m    Similarity
		want string
	}{
		{NGramJaccard{N: 3}, "3gram-jaccard"},
		{NGramJaccard{N: 12}, "12gram-jaccard"},
		{NGramDice{N: 12}, "12gram-dice"},
	}
	for _, c := range cases {
		if got := c.m.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}
