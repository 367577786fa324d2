package match

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"mube/internal/constraint"
	"mube/internal/schema"
	"mube/internal/strutil"
)

// tableSim is a similarity read from a fixed table of name pairs: equal names
// score 1, and distinct names the table does not list score 0.
func tableSim(pairs map[[2]string]float64) strutil.Similarity {
	return strutil.Func{Label: "table", F: func(a, b string) float64 {
		if a == b {
			return 1
		}
		if a > b {
			a, b = b, a
		}
		return pairs[[2]string{a, b}]
	}}
}

// chainSim links three names in a θ-chain at θ = 0.5: alpha~beta (0.9) and
// beta~gamma (0.6), while alpha and gamma score 0.1.
var chainSim = tableSim(map[[2]string]float64{
	{"alpha", "beta"}: 0.9, {"beta", "gamma"}: 0.6, {"alpha", "gamma"}: 0.1,
})

// TestAvgLinkageSplitsConnectedRun is a run whose θ-graph is connected but
// which average linkage leaves split. Sources carry alpha, beta and gamma.
// Max linkage merges alpha and beta, then gamma at 0.6: one GA of all three,
// quality 0.9. Average linkage merges alpha and beta, then scores gamma
// against them at (0.1 + 0.6)/2 = 0.35 < θ: the GA is {alpha, beta}, and
// gamma is pruned. Both must agree with the oracle.
func TestAvgLinkageSplitsConnectedRun(t *testing.T) {
	u := universe(t, []string{"alpha"}, []string{"beta"}, []string{"gamma"})
	q09 := float64(float32(0.9))
	for _, tc := range []struct {
		linkage Linkage
		want    schema.GA
	}{
		{MaxLinkage, schema.NewGA(ref(0, 0), ref(1, 0), ref(2, 0))},
		{AvgLinkage, schema.NewGA(ref(0, 0), ref(1, 0))},
	} {
		m := MustNew(u, Config{Similarity: chainSim, Theta: 0.5, Linkage: tc.linkage})
		got, err := m.Match(u.IDs(), constraint.Set{})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, tc.linkage.String(), got, referenceMatch(m, u.IDs(), constraint.Set{}))
		if len(got.Schema.GAs) != 1 || !got.Schema.GAs[0].Equal(tc.want) ||
			math.Float64bits(got.Quality) != math.Float64bits(q09) {
			t.Errorf("%v linkage: %v with quality %v, want [%v] with quality %v",
				tc.linkage, got.Schema, got.Quality, tc.want, q09)
		}
	}
}

// emitted is what one settling of a run appended to the scratch.
type emitted struct {
	gas   []schema.GA
	quals []float64
}

// bothWays seeds shard k of sh from members and lets oneGA settle the run,
// then runs rounds and collectInto on the same seeded scratch, which oneGA
// leaves as seeding left it. It returns whether oneGA accepted the run, what
// each side emitted, and whether rounds ended with one cluster holding every
// seeded reference.
func bothWays(sh *Sharded, members []schema.SourceID, k int32) (ok bool, short, full emitted, whole bool) {
	sc := newMatchScratch()
	sh.seedShard(sc, members, k)
	refs := len(sc.refs)
	ok = sh.oneGA(sc, members, k)
	short = emitted{slices.Clone(sc.gas), slices.Clone(sc.quals)}
	n := len(sc.gas)
	sh.m.rounds(sc)
	whole = len(sc.live) == 1 && int(sc.slab[sc.live[0]].hi-sc.slab[sc.live[0]].lo) == refs
	sh.m.collectInto(sc)
	return ok, short, emitted{sc.gas[n:], sc.quals[n:]}, whole
}

// sameEmitted fails t unless both sides emitted the same GA references and
// quality bits.
func sameEmitted(t *testing.T, label string, short, full emitted) {
	t.Helper()
	if len(short.gas) != len(full.gas) {
		t.Fatalf("%s: oneGA emitted %v, rounds %v", label, short.gas, full.gas)
	}
	for i, g := range short.gas {
		if !g.Equal(full.gas[i]) || math.Float64bits(short.quals[i]) != math.Float64bits(full.quals[i]) {
			t.Fatalf("%s: oneGA emitted %v (quality %v), rounds %v (quality %v)",
				label, g, short.quals[i], full.gas[i], full.quals[i])
		}
	}
}

// shardMembers groups the ascending ids by the overlay shards they touch:
// shard -> ascending members.
func shardMembers(sh *Sharded, ids []schema.SourceID) map[int32][]schema.SourceID {
	out := map[int32][]schema.SourceID{}
	for _, id := range ids {
		for _, k := range sh.sourceShards(id) {
			out[k] = append(out[k], id)
		}
	}
	return out
}

// TestOneGAMatchesRounds backs the proof that oneGA is exact (DESIGN.md,
// "The clustering kernel"). On random tie-heavy universes (3–16 sources,
// θ in [0.3, 0.8], β in {1, 2, 3}, both linkages, name and hybrid
// similarity, every constraint kind), every shard run of random subsets is
// settled both ways: a run oneGA accepts must give rounds + collectInto's GA
// references and quality bits, a run it declines must leave nothing behind,
// and a GA-free max-linkage run of one attribute per member must be accepted
// exactly when rounds ends with one cluster holding every seed.
func TestOneGAMatchesRounds(t *testing.T) {
	var accepted, split, declined int
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(1000 + seed))
		n := 3 + r.Intn(14)
		cfg := Config{Theta: 0.3 + 0.5*r.Float64(), Beta: 1 + r.Intn(3), Linkage: Linkage(r.Intn(2))}
		if seed%2 == 1 {
			cfg.DataWeight = 0.5
		}
		m := MustNew(tieUniverse(t, r, n, seed%2 == 1), cfg)
		cons, ok := kernelCons(r, m, int(seed)%len(kernelConsKinds))
		if !ok {
			continue
		}
		sh := m.NewSharded(cons)
		for trial := 0; trial < 8; trial++ {
			set := append(subset(r, n, 1+r.Intn(n)), cons.RequiredSources()...)
			slices.Sort(set)
			set = slices.Compact(set)
			for k, members := range shardMembers(sh, set) {
				if len(members) <= 1 && !sh.pinned(k) {
					continue
				}
				label := fmt.Sprintf("seed %d (n=%d θ=%.3f β=%d %v w=%v) cons %v shard %d members %v",
					seed, n, cfg.Theta, cfg.Beta, cfg.Linkage, cfg.DataWeight, cons.GAs, k, members)
				ok, short, full, whole := bothWays(sh, members, k)
				if !ok {
					declined++
					if len(short.gas) != 0 {
						t.Fatalf("%s: declined run emitted %v", label, short.gas)
					}
					continue
				}
				accepted++
				sameEmitted(t, label, short, full)
				if !whole {
					t.Fatalf("%s: accepted run, but rounds ended with live clusters %v", label, full.gas)
				}
			}
		}
		// The connectivity test is exact both ways: over GA-free max-linkage
		// runs of one attribute per member, accepted iff rounds joins them all.
		mm, err := m.WithParams(cfg.Theta, cfg.Beta, MaxLinkage)
		if err != nil {
			t.Fatal(err)
		}
		free := mm.NewSharded(constraint.Set{})
		for trial := 0; trial < 16; trial++ {
			for k, members := range shardMembers(free, subset(r, n, 2+r.Intn(min(n-1, 3)))) {
				sc := newMatchScratch()
				free.seedShard(sc, members, k)
				if len(members) < 2 || len(sc.slab) != len(members) {
					continue
				}
				ok, _, _, whole := bothWays(free, members, k)
				if ok != whole {
					t.Fatalf("seed %d θ=%.3f shard %d members %v: oneGA accepted = %v, rounds joined every seed = %v",
						seed, cfg.Theta, k, members, ok, whole)
				}
				if !ok {
					split++
				}
			}
		}
	}
	t.Logf("%d accepted, %d declined, %d split runs", accepted, declined, split)
	if accepted < 100 || declined < 50 || split < 5 {
		t.Errorf("%d accepted, %d declined, %d split runs; want ≥ 100, ≥ 50 and ≥ 5", accepted, declined, split)
	}
}

// TestOneGARule pins each condition of the rule on fixed tables. oneGA must
// decline a shard a single-reference constraint GA is pinned to, whose GA
// rounds keeps although β = 4 exceeds its three members; a member with two
// attributes in the shard; a θ-chain alpha~beta~gamma with only alpha and
// gamma present; and average linkage. It must accept alpha and beta and emit
// their GA only while β ≤ 2, and accept a connected run of 70 seeds, more
// than one machine word of them, with rounds' GA and quality.
func TestOneGARule(t *testing.T) {
	u := universe(t, []string{"alpha"}, []string{"beta"}, []string{"gamma"}, []string{"alpha", "beta"})
	m := MustNew(u, Config{Similarity: chainSim, Theta: 0.5})
	plain := m.NewSharded(constraint.Set{})
	if plain.NumShards() != 1 {
		t.Fatalf("chain fixture: %d shards, want 1", plain.NumShards())
	}
	with := func(beta int, linkage Linkage, cons constraint.Set) *Sharded {
		mm, err := m.WithParams(0.5, beta, linkage)
		if err != nil {
			t.Fatal(err)
		}
		return mm.NewSharded(cons)
	}
	for _, tc := range []struct {
		name    string
		sh      *Sharded
		members []schema.SourceID
		accept  bool
		gas     int // GAs oneGA emits
		full    int // GAs rounds + collectInto emit
	}{
		{"pinned GA", with(4, MaxLinkage, constraint.Set{GAs: []schema.GA{schema.NewGA(ref(2, 0))}}), ids(0, 1, 2), false, 0, 1},
		{"two attributes", plain, ids(2, 3), false, 0, 1},
		{"chain without its middle", plain, ids(0, 2), false, 0, 0},
		{"average linkage", with(2, AvgLinkage, constraint.Set{}), ids(0, 1, 2), false, 0, 1},
		{"connected", plain, ids(0, 1, 2), true, 1, 1},
		{"β = n", plain, ids(0, 1), true, 1, 1},
		{"β > n", with(3, MaxLinkage, constraint.Set{}), ids(0, 1), true, 0, 0},
	} {
		ok, short, full, _ := bothWays(tc.sh, tc.members, 0)
		if ok != tc.accept || len(short.gas) != tc.gas || len(full.gas) != tc.full {
			t.Errorf("%s: oneGA = (%v, %d GAs), rounds %d GAs; want (%v, %d GAs), %d GAs",
				tc.name, ok, len(short.gas), len(full.gas), tc.accept, tc.gas, tc.full)
		}
		if ok {
			sameEmitted(t, tc.name, short, full)
		}
	}

	// 70 sources of one attribute each, with pseudo-random similarities in
	// [0, 1) that put about half the pairs at or above θ.
	const n = 70
	var schemas [][]string
	for i := 0; i < n; i++ {
		schemas = append(schemas, []string{fmt.Sprintf("n%02d", i)})
	}
	idx := func(name string) int {
		i, err := strconv.Atoi(name[1:])
		if err != nil {
			panic(err)
		}
		return i
	}
	hashed := strutil.Func{Label: "hashed", F: func(a, b string) float64 {
		i, j := idx(a), idx(b)
		if i == j {
			return 1
		}
		return float64(((i*i+j*j)*73+i*j*37)%997) / 997
	}}
	big := universe(t, schemas...)
	bm := MustNew(big, Config{Similarity: hashed, Theta: 0.5})
	bsh := bm.NewSharded(constraint.Set{})
	if bsh.NumShards() != 1 {
		t.Fatalf("70-seed fixture: %d shards, want 1", bsh.NumShards())
	}
	ok, short, full, whole := bothWays(bsh, big.IDs(), 0)
	if !ok || !whole || len(short.gas) != 1 || short.gas[0].Size() != n {
		t.Fatalf("70 seeds: oneGA = (%v, %v), rounds joined every seed = %v", ok, short.gas, whole)
	}
	sameEmitted(t, "70 seeds", short, full)
	got, err := bm.Match(big.IDs(), constraint.Set{})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "70 seeds Match", got, referenceMatch(bm, big.IDs(), constraint.Set{}))
}
