package match

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mube/internal/constraint"
	"mube/internal/schema"
	"mube/internal/source"
	"mube/internal/testutil"
)

// The pointer-based Algorithm 1 that the span-based kernel in cluster.go
// replaced, kept as its test oracle. Clusters are heap objects holding their
// GA and member-name slices; a merge marks both inputs dead, appends the
// product, and indexes never move, so H_sim's (sim desc, i, j) tie-break
// reads cluster indexes exactly as the paper's pseudocode numbers them.
// Per-GA quality comes from GAQuality over the GA's references.

// refCluster is the oracle's cluster: a GA plus bookkeeping flags.
type refCluster struct {
	ga    schema.GA
	names []int // similarity ids of the members, in merge order

	keep       bool
	everMerged bool
	merged     bool
	mergeCand  bool
	dead       bool
}

// refLinkage is the cluster-to-cluster similarity under m's linkage rule.
func refLinkage(m *Matcher, a, b *refCluster) float64 {
	switch m.cfg.Linkage {
	case AvgLinkage:
		sum := 0.0
		for _, na := range a.names {
			for _, nb := range b.names {
				sum += m.simByID(na, nb)
			}
		}
		return sum / float64(len(a.names)*len(b.names))
	default: // MaxLinkage
		best := 0.0
		for _, na := range a.names {
			for _, nb := range b.names {
				if s := m.simByID(na, nb); s > best {
					best = s
				}
			}
		}
		return best
	}
}

// refNames returns the similarity ids of g's members in reference order.
func refNames(m *Matcher, g schema.GA) []int {
	var out []int
	for _, r := range g.Refs() {
		out = append(out, m.simID[r.Source][r.Attr])
	}
	return out
}

// referenceMatch is Matcher.Match over the oracle kernel. The caller
// guarantees that ids satisfy cons.
func referenceMatch(m *Matcher, ids []schema.SourceID, cons constraint.Set) Result {
	// Seed (Algorithm 1, lines 1–4): one keep cluster per GA constraint,
	// then one singleton per remaining attribute of every source in ids.
	var clusters []*refCluster
	inCons := make(map[schema.AttrRef]struct{})
	for _, g := range cons.GAs {
		for _, r := range g.Refs() {
			inCons[r] = struct{}{}
		}
		clusters = append(clusters, &refCluster{ga: g, names: refNames(m, g), keep: true})
	}
	for _, id := range ids {
		for a := 0; a < m.u.Source(id).Schema.Len(); a++ {
			r := schema.AttrRef{Source: id, Attr: a}
			if _, taken := inCons[r]; taken {
				continue
			}
			g := schema.NewGA(r)
			clusters = append(clusters, &refCluster{ga: g, names: refNames(m, g)})
		}
	}

	for {
		for _, c := range clusters {
			if !c.dead {
				c.merged, c.mergeCand = false, false
			}
		}
		var h []pair
		for i := 0; i < len(clusters); i++ {
			if clusters[i].dead {
				continue
			}
			for j := i + 1; j < len(clusters); j++ {
				if clusters[j].dead {
					continue
				}
				if s := refLinkage(m, clusters[i], clusters[j]); s >= m.cfg.Theta {
					h = append(h, pair{i: int32(i), j: int32(j), sim: s})
				}
			}
		}
		slices.SortFunc(h, func(a, b pair) int {
			switch {
			case a.sim > b.sim:
				return -1
			case a.sim < b.sim:
				return 1
			case a.i != b.i:
				return int(a.i) - int(b.i)
			}
			return int(a.j) - int(b.j)
		})

		anyMerge, anyCand := false, false
		for _, p := range h {
			c1, c2 := clusters[p.i], clusters[p.j]
			switch {
			case !c1.merged && !c2.merged && c1.ga.CanMerge(c2.ga):
				clusters = append(clusters, &refCluster{
					ga:         c1.ga.Union(c2.ga),
					names:      append(append([]int(nil), c1.names...), c2.names...),
					keep:       c1.keep || c2.keep,
					everMerged: true,
				})
				c1.merged, c2.merged = true, true
				c1.dead, c2.dead = true, true
				anyMerge = true
			case c1.merged != c2.merged:
				if c1.merged {
					c2.mergeCand = true
				} else {
					c1.mergeCand = true
				}
				anyCand = true
			}
		}
		for _, c := range clusters {
			if !c.dead && !c.keep && !c.everMerged && !c.mergeCand {
				c.dead = true
			}
		}
		if !anyMerge && !anyCand {
			break
		}
	}

	var gas []schema.GA
	for _, c := range clusters {
		if c.dead || (!c.keep && c.ga.Size() < m.cfg.Beta) {
			continue
		}
		gas = append(gas, c.ga)
	}
	slices.SortFunc(gas, schema.GA.Compare)
	med := schema.Mediated{GAs: gas}
	if !med.Spans(cons.Sources) {
		return Result{}
	}
	res := Result{OK: true, Schema: med}
	if med.Len() > 0 {
		sum := 0.0
		for _, g := range gas {
			q := m.GAQuality(g)
			res.GAQuality = append(res.GAQuality, q)
			sum += q
		}
		res.Quality = sum / float64(med.Len())
	}
	return res
}

// tieUniverse builds n random sources over a small vocabulary whose names
// recur verbatim, within and across sources, so many attribute pairs tie at
// the same similarity and Algorithm 1's tie-break by cluster index decides
// which merge comes first. The two name families share no 3-gram, which
// usually gives the shard index several shards. With sketched set, every
// attribute carries a MinHash signature of one of four overlapping value
// ranges, for hybrid matching.
func tieUniverse(t *testing.T, r *rand.Rand, n int, sketched bool) *source.Universe {
	t.Helper()
	books := []string{"title", "book title", "author", "author name", "writer", "price", "isbn"}
	flights := []string{"departure", "departure time", "arrival", "carrier"}
	u := source.NewUniverse(sigCfg)
	for i := 0; i < n; i++ {
		vocab := books
		if r.Intn(3) == 0 {
			vocab = flights
		}
		attrs := make([]string, 1+r.Intn(4))
		values := make([][]uint64, len(attrs))
		for a := range attrs {
			attrs[a] = vocab[r.Intn(len(vocab))]
			lo := 50 * uint64(r.Intn(4))
			values[a] = seq(lo, lo+100)
		}
		if sketched {
			addSketched(t, u, "s", attrs, values)
		} else {
			mustAdd(t, u, source.Uncooperative("s", schema.NewSchema(attrs...)))
		}
	}
	return u
}

// constraint kinds TestKernelMatchesReference covers.
var kernelConsKinds = []string{"none", "required sources", "two-source GA", "single-reference GA", "bridging GA"}

// kernelCons draws a constraint set of the given kind over m's universe, or
// reports false when the universe has none (a bridging GA needs two shards).
func kernelCons(r *rand.Rand, m *Matcher, kind int) (constraint.Set, bool) {
	n := m.u.Len()
	attr := func(s int) schema.AttrRef { return ref(s, r.Intn(len(m.simID[s]))) }
	switch kind {
	case 1:
		return constraint.Set{Sources: subset(r, n, 1+r.Intn(2))}, true
	case 2:
		s1 := r.Intn(n)
		s2 := (s1 + 1 + r.Intn(n-1)) % n
		return constraint.Set{GAs: []schema.GA{schema.NewGA(attr(s1), attr(s2))}}, true
	case 3:
		return constraint.Set{GAs: []schema.GA{schema.NewGA(attr(r.Intn(n)))}}, true
	case 4:
		shardOf := func(a schema.AttrRef) int32 { return m.shardIdx().shardOf[m.simID[a.Source][a.Attr]] }
		var bridges [][2]schema.AttrRef
		for s1 := 0; s1 < n; s1++ {
			for s2 := s1 + 1; s2 < n; s2++ {
				for a1 := range m.simID[s1] {
					for a2 := range m.simID[s2] {
						if x, y := ref(s1, a1), ref(s2, a2); shardOf(x) != shardOf(y) {
							bridges = append(bridges, [2]schema.AttrRef{x, y})
						}
					}
				}
			}
		}
		if len(bridges) == 0 {
			return constraint.Set{}, false
		}
		b := bridges[r.Intn(len(bridges))]
		return constraint.Set{GAs: []schema.GA{schema.NewGA(b[0], b[1])}}, true
	}
	return constraint.Set{}, true
}

// TestKernelMatchesReference pins the span-based kernel to the pointer-based
// oracle above, tie-breaks included: for random tie-heavy universes of 3–16
// sources, θ in [0.3, 0.8], β in {1, 2, 3}, both linkages, name and hybrid
// similarity and every constraint kind, Match must return the oracle's GAs,
// per-GA qualities, quality bits and validity, and Score must return Match's
// quality bits and validity. Both whole-set paths cluster shard by shard, so
// this also pins the shard decomposition to the unsharded oracle.
func TestKernelMatchesReference(t *testing.T) {
	ran := make([]int, len(kernelConsKinds))
	for seed := int64(0); seed < 80; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(14)
		cfg := Config{Theta: 0.3 + 0.5*r.Float64(), Beta: 1 + r.Intn(3), Linkage: Linkage(r.Intn(2))}
		sketched := seed%2 == 1
		if sketched {
			cfg.DataWeight = 0.5
		}
		m := MustNew(tieUniverse(t, r, n, sketched), cfg)
		for kind, name := range kernelConsKinds {
			cons, ok := kernelCons(r, m, kind)
			if !ok {
				continue
			}
			ran[kind]++
			for trial := 0; trial < 8; trial++ {
				ids := append(subset(r, n, 1+r.Intn(n)), cons.RequiredSources()...)
				slices.Sort(ids)
				ids = slices.Compact(ids)
				label := fmt.Sprintf("seed %d (n=%d θ=%.3f β=%d %v w=%v) %s %v, ids %v",
					seed, n, cfg.Theta, cfg.Beta, cfg.Linkage, cfg.DataWeight, name, cons.GAs, ids)
				got, err := m.Match(ids, cons)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want := referenceMatch(m, ids, cons)
				if got.OK != want.OK || math.Float64bits(got.Quality) != math.Float64bits(want.Quality) ||
					len(got.Schema.GAs) != len(want.Schema.GAs) {
					t.Fatalf("%s: Match = (%v, %v, %v), oracle = (%v, %v, %v)", label,
						got.OK, got.Quality, got.Schema, want.OK, want.Quality, want.Schema)
				}
				for i, g := range got.Schema.GAs {
					if !g.Equal(want.Schema.GAs[i]) ||
						math.Float64bits(got.GAQuality[i]) != math.Float64bits(want.GAQuality[i]) {
						t.Fatalf("%s: GA %d = %v (quality %v), oracle %v (quality %v)", label,
							i, g, got.GAQuality[i], want.Schema.GAs[i], want.GAQuality[i])
					}
				}
				q, ok, err := m.NewSharded(cons).Score(ids)
				if err != nil || ok != got.OK || math.Float64bits(q) != math.Float64bits(got.Quality) {
					t.Fatalf("%s: Score = (%v, %v, %v), Match = (%v, %v)", label, q, ok, err, got.Quality, got.OK)
				}
			}
		}
	}
	for kind, c := range ran {
		if c < 10 {
			t.Errorf("%s: %d cases, want ≥ 10", kernelConsKinds[kind], c)
		}
	}
}

// TestShardedMatchesReferenceBooks pins every whole-set path to the unsharded
// oracle on the Books fixture at θ = 0.45: for every nonempty subset of at
// most five sources that satisfies the constraints, Sharded.Score,
// Sharded.Match and Matcher.Match must return referenceMatch's validity,
// quality bits, GAs and per-GA quality bits. The constraint sets are none,
// source 3 required, and source 3 required plus the GA {s3.a0, s4.a1}, whose
// references sit in different base shards, so the overlay fuses them.
func TestShardedMatchesReferenceBooks(t *testing.T) {
	u := testutil.BooksUniverse(t)
	m := MustNew(u, Config{Theta: 0.45})
	fused := constraint.Set{Sources: ids(3), GAs: []schema.GA{schema.NewGA(ref(3, 0), ref(4, 1))}}
	if got, plain := m.NewSharded(fused).NumShards(), m.NewSharded(constraint.Set{}).NumShards(); got >= plain {
		t.Fatalf("fusing GA: %d overlay shards, want fewer than the %d base shards", got, plain)
	}
	for _, tc := range []struct {
		name string
		cons constraint.Set
		want int // subsets checked
	}{
		{"none", constraint.Set{}, 1585},
		{"required", constraint.Set{Sources: ids(3)}, 562},
		{"fused", fused, 176},
	} {
		sh := m.NewSharded(tc.cons)
		checked := 0
		for mask := 1; mask < 1<<u.Len(); mask++ {
			var set []schema.SourceID
			for s := 0; s < u.Len(); s++ {
				if mask&(1<<s) != 0 {
					set = append(set, schema.SourceID(s))
				}
			}
			if len(set) > 5 || !tc.cons.SatisfiedBy(set) {
				continue
			}
			checked++
			label := fmt.Sprintf("%s %v", tc.name, set)
			want := referenceMatch(m, set, tc.cons)
			q, ok, err := sh.Score(set)
			if err != nil || ok != want.OK || math.Float64bits(q) != math.Float64bits(want.Quality) {
				t.Fatalf("%s: Sharded.Score = (%v, %v, %v), oracle = (%v, %v)", label, q, ok, err, want.Quality, want.OK)
			}
			got, err := sh.Match(set)
			if err != nil {
				t.Fatalf("%s: Sharded.Match: %v", label, err)
			}
			sameResult(t, label+" Sharded.Match", got, want)
			if got, err = m.Match(set, tc.cons); err != nil {
				t.Fatalf("%s: Matcher.Match: %v", label, err)
			}
			sameResult(t, label+" Matcher.Match", got, want)
		}
		if checked != tc.want {
			t.Errorf("%s: checked %d subsets, want %d", tc.name, checked, tc.want)
		}
	}
}

// sameResult fails t unless got equals want bit for bit: validity, quality,
// GAs and per-GA qualities.
func sameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.OK != want.OK || math.Float64bits(got.Quality) != math.Float64bits(want.Quality) ||
		len(got.Schema.GAs) != len(want.Schema.GAs) || len(got.GAQuality) != len(want.GAQuality) {
		t.Fatalf("%s: (%v, %v, %v), oracle (%v, %v, %v)", label,
			got.OK, got.Quality, got.Schema, want.OK, want.Quality, want.Schema)
	}
	for i, g := range got.Schema.GAs {
		if !g.Equal(want.Schema.GAs[i]) || math.Float64bits(got.GAQuality[i]) != math.Float64bits(want.GAQuality[i]) {
			t.Fatalf("%s: GA %d = %v (quality %v), oracle %v (quality %v)", label,
				i, g, got.GAQuality[i], want.Schema.GAs[i], want.GAQuality[i])
		}
	}
}
