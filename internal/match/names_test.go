package match

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mube/internal/source"
	"mube/internal/strutil"
	"mube/internal/testutil"
)

// oracleNameTable is the per-pair reference for the name-similarity table:
// every attribute normalized and interned in first-seen order, then Sim
// called on every distinct-name pair.
func oracleNameTable(u *source.Universe, sim strutil.Similarity) ([]string, []float32) {
	ids := make(map[string]int)
	var names []string
	for _, s := range u.Sources() {
		for ai := 0; ai < s.Schema.Len(); ai++ {
			norm := strutil.Normalize(s.Schema.Name(ai))
			if _, ok := ids[norm]; !ok {
				ids[norm] = len(names)
				names = append(names, norm)
			}
		}
	}
	d := len(names)
	table := make([]float32, d*(d+1)/2)
	for i := 0; i < d; i++ {
		table[i*d-i*(i-1)/2] = 1
		for j := i + 1; j < d; j++ {
			table[i*d-i*(i-1)/2+(j-i)] = float32(sim.Sim(names[i], names[j]))
		}
	}
	return names, table
}

// assertOracleTable checks m's names and table bit for bit against the
// oracle over its universe.
func assertOracleTable(t *testing.T, label string, m *Matcher) {
	t.Helper()
	names, table := oracleNameTable(m.Universe(), m.cfg.Similarity)
	if !slices.Equal(m.names, names) {
		t.Fatalf("%s: names %q, oracle %q", label, m.names, names)
	}
	if len(m.table) != len(table) {
		t.Fatalf("%s: table has %d entries, oracle %d", label, len(m.table), len(table))
	}
	for k := range table {
		if math.Float32bits(m.table[k]) != math.Float32bits(table[k]) {
			t.Fatalf("%s: entry %d = %v, oracle %v", label, k, m.table[k], table[k])
		}
	}
}

// edgeCaseSchemas mixes names that normalize to "", names shorter than the
// gram size, raw spellings that collapse to one normalized name, and names
// sharing no gram with anything else.
func edgeCaseSchemas() [][]string {
	return [][]string{
		{"Author_Name", "title", "a", "___"},
		{"author name", "AUTHOR-NAME", "ab", "x"},
		{"", "!!", "Title", "book title", "zq"},
		{"price", "Price Range", "qqqq", "a b"},
		{"authorname", "isbn 13", "ISBN-13", "b"},
		{"aaaaaa", "aa", "title", "ba"},
	}
}

var tableMeasures = []strutil.Similarity{
	strutil.TriGramJaccard,
	strutil.NGramDice{N: 3},
	strutil.NGramJaccard{N: 2},
	strutil.LevenshteinSim{},
}

// TestNameTableMatchesOracle pins the table fill bit for bit against the
// per-pair Sim loop, for gram-set measures (counted through postings) and
// the per-pair fallback, over cold builds and prefix-to-full rebinds.
func TestNameTableMatchesOracle(t *testing.T) {
	edge := edgeCaseSchemas()
	r := rand.New(rand.NewSource(7))
	var random [][]string
	for _, s := range randomUniverse(t, r, 60).Sources() {
		names := make([]string, s.Schema.Len())
		for i := range names {
			names[i] = s.Schema.Name(i)
		}
		random = append(random, names)
	}
	for _, schemas := range [][][]string{edge, random, append(append([][]string{}, random...), edge...)} {
		full := universe(t, schemas...)
		for _, sim := range tableMeasures {
			label := fmt.Sprintf("%s/%d sources", sim.Name(), full.Len())
			cold := MustNew(full, Config{Similarity: sim})
			assertOracleTable(t, label+"/New", cold)
			for _, k := range []int{0, 1, len(schemas) / 2, len(schemas) - 1} {
				warm, err := MustNew(universe(t, schemas[:k]...), Config{Similarity: sim}).Rebind(full)
				if err != nil {
					t.Fatal(err)
				}
				assertOracleTable(t, fmt.Sprintf("%s/Rebind from %d", label, k), warm)
			}
		}
	}
}

// TestNewAllocsScaleWithSourcesAndNames pins New's allocation budget on a
// universe with many more attributes than sources plus distinct names: the
// interning allocates once per distinct spelling and the table fill once per
// distinct name or gram, never per attribute or per name pair.
func TestNewAllocsScaleWithSourcesAndNames(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	var vocab []string
	for i := 0; i < 24; i++ {
		a, b := rune('a'+i%6), rune('a'+i/6)
		// Two spellings of one name: both normalize to "attr <a><b>".
		vocab = append(vocab, fmt.Sprintf("attr_%c%c", a, b), fmt.Sprintf("ATTR %c%c", a-'a'+'A', b-'a'+'A'))
	}
	r := rand.New(rand.NewSource(1))
	const sources, attrs = 150, 16
	var schemas [][]string
	for s := 0; s < sources; s++ {
		var row []string
		for _, i := range r.Perm(len(vocab))[:attrs] {
			row = append(row, vocab[i])
		}
		schemas = append(schemas, row)
	}
	u := universe(t, schemas...)
	names := MustNew(u, Config{}).SimIDs()
	budget := float64(sources + 8*names)
	got := testing.AllocsPerRun(5, func() { MustNew(u, Config{}) })
	if got > budget {
		t.Errorf("New: %v allocs for %d sources, %d attributes, %d names; budget %v",
			got, sources, sources*attrs, names, budget)
	}

	// A Rebind that brings no new name allocates as many times at 2 400
	// sources as at 150: nothing it allocates is per source or attribute.
	rebindAllocs := func(u *source.Universe) int {
		m := MustNew(u, Config{})
		return int(testing.AllocsPerRun(5, func() {
			if _, err := m.Rebind(u); err != nil {
				t.Fatal(err)
			}
		}))
	}
	var big [][]string
	for i := 0; i < 16; i++ {
		big = append(big, schemas...)
	}
	if small, large := rebindAllocs(u), rebindAllocs(universe(t, big...)); small != large {
		t.Errorf("Rebind with no new name: %v allocs at %d sources, %v at %d", small, sources, large, len(big))
	}
}
