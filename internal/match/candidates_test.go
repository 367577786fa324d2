package match

import (
	"math/rand"
	"slices"
	"testing"

	"mube/internal/constraint"
	"mube/internal/schema"
	"mube/internal/strutil"
)

// shardIndexEqual compares two shard indexes field by field.
func shardIndexEqual(t *testing.T, label string, a, b shardIndex) {
	t.Helper()
	if a.nShards != b.nShards {
		t.Fatalf("%s: nShards %d vs %d", label, a.nShards, b.nShards)
	}
	if !slices.Equal(a.shardOf, b.shardOf) {
		t.Fatalf("%s: shardOf differs:\n%v\n%v", label, a.shardOf, b.shardOf)
	}
	if !slices.Equal(a.srcOff, b.srcOff) || !slices.Equal(a.srcShards, b.srcShards) {
		t.Fatalf("%s: per-source shard lists differ", label)
	}
}

// buildShardIndexFlat is the reference O(n²) build: the brute-force edge
// route buildShardIndex falls back to for measures without a candidate
// index, forced for every measure so the indexed route can be checked
// against it.
func (m *Matcher) buildShardIndexFlat() shardIndex {
	parent := newUnionFind(m.n)
	m.collectEdgesFlat(parent)
	return m.finishShardIndex(parent)
}

// flatIndexed returns a matcher identical to m whose cached shard index was
// built with the flat O(n²) reference loop, so every public path (Sharded,
// SourceGroups, ScoreFlip) can be differentially tested against it.
func flatIndexed(m *Matcher) *Matcher {
	clone := *m
	clone.shardc = &shardCache{}
	clone.shardc.once.Do(func() { clone.shardc.idx = clone.buildShardIndexFlat() })
	return &clone
}

// TestShardIndexIndexedMatchesFlat is the candidate-generation differential:
// on seeded universes across θ values, the inverted-index build and the flat
// all-pairs build produce identical components — same labels, same
// per-source lists.
func TestShardIndexIndexedMatchesFlat(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		u := randomUniverse(t, rand.New(rand.NewSource(seed)), 40)
		for _, theta := range []float64{0.3, 0.45, 0.7} {
			m := MustNew(u, Config{Theta: theta})
			fast := m.buildShardIndex()
			flat := m.buildShardIndexFlat()
			shardIndexEqual(t, "name mode", fast, flat)
		}
	}
}

// TestShardIndexHybridMatchesFlat runs the same differential in hybrid
// (data-weighted) mode, where candidates come from name grams and MinHash
// bands.
func TestShardIndexHybridMatchesFlat(t *testing.T) {
	u := hybridUniverse(t)
	for _, w := range []float64{0.3, 0.6, 1.0} {
		m := MustNew(u, Config{Theta: 0.5, DataWeight: w})
		fast := m.buildShardIndex()
		flat := m.buildShardIndexFlat()
		shardIndexEqual(t, "hybrid mode", fast, flat)
	}
}

// TestShardIndexCustomMeasureFallsBack pins the soundness envelope: a
// similarity measure without a zero-certificate must take the flat route —
// trivially equal, and correct for measures like Levenshtein that are
// positive for names sharing no gram.
func TestShardIndexCustomMeasureFallsBack(t *testing.T) {
	u := randomUniverse(t, rand.New(rand.NewSource(1)), 20)
	m := MustNew(u, Config{Theta: 0.45, Similarity: strutil.LevenshteinSim{}})
	if _, _, ok := strutil.GramMeasure(m.cfg.Similarity); ok {
		t.Fatal("LevenshteinSim must be outside the gram-index envelope")
	}
	parent := newUnionFind(m.n)
	if m.collectEdgesIndexed(parent) {
		t.Fatal("collectEdgesIndexed accepted a custom measure")
	}
	shardIndexEqual(t, "fallback", m.buildShardIndex(), m.buildShardIndexFlat())
}

// TestSourceGroupsMatchFlatWithOverlays compares the public decomposition —
// with and without constraint GA overlays bridging shards — between the
// indexed and flat builds.
func TestSourceGroupsMatchFlatWithOverlays(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		u := randomUniverse(t, r, 30)
		m := MustNew(u, Config{Theta: 0.45})
		fm := flatIndexed(m)
		overlays := []constraint.Set{
			{},
			{GAs: []schema.GA{schema.NewGA(ref(0, 0), ref(1, 0))}}, // bridges book/flight shards
		}
		for ci, cons := range overlays {
			got := m.NewSharded(cons).SourceGroups()
			want := fm.NewSharded(cons).SourceGroups()
			if len(got) != len(want) {
				t.Fatalf("seed %d overlay %d: %d groups vs %d", seed, ci, len(got), len(want))
			}
			for gi := range got {
				if !slices.Equal(got[gi], want[gi]) {
					t.Fatalf("seed %d overlay %d group %d: %v vs %v", seed, ci, gi, got[gi], want[gi])
				}
			}
		}
	}
}

// TestPairCandidatesSubQuadratic pins the point of the index: on a
// many-domain universe the candidate count is well below the flat pair
// total, and the counter advances for both routes.
func TestPairCandidatesSubQuadratic(t *testing.T) {
	// Vocabulary-disjoint domains: names from different domains share no
	// gram, so candidates stay within domains while the flat total spans all.
	var schemas [][]string
	vocab := [][]string{
		{"alpha one", "alpha two", "alpha three", "alpha four"},
		{"birch xylem", "birch phloem", "birch bark", "birch root"},
		{"corvid wing", "corvid beak", "corvid claw", "corvid tail"},
		{"delta flow", "delta silt", "delta marsh", "delta fan"},
	}
	for _, words := range vocab {
		for i := 0; i < 3; i++ {
			schemas = append(schemas, words)
		}
	}
	u := universe(t, schemas...)
	m := MustNew(u, Config{Theta: 0.45})

	before := PairCandidates()
	m.buildShardIndex()
	indexed := PairCandidates() - before
	n := uint64(m.SimIDs())
	flatTotal := n * (n - 1) / 2
	if indexed == 0 {
		t.Fatal("indexed build tested no pairs")
	}
	if indexed >= flatTotal {
		t.Fatalf("indexed build tested %d pairs, not sub-quadratic vs %d", indexed, flatTotal)
	}

	before = PairCandidates()
	m.buildShardIndexFlat()
	if got := PairCandidates() - before; got != flatTotal {
		t.Fatalf("flat build counted %d pairs, want %d", got, flatTotal)
	}
}
