package match

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mube/internal/constraint"
	"mube/internal/schema"
	"mube/internal/source"
	"mube/internal/testutil"
)

// randomUniverse builds a universe mixing two name families that never cross
// the θ=0.45 similarity threshold, so the shard index has at least two base
// shards, plus noise attributes.
func randomUniverse(t *testing.T, r *rand.Rand, n int) *source.Universe {
	t.Helper()
	books := []string{"title", "book title", "author", "author name", "writer", "price", "price range"}
	flights := []string{"departure", "departure time", "arrival", "arrival gate", "carrier"}
	noise := []string{"zebra", "quux", "xylophone"}
	var schemas [][]string
	for i := 0; i < n; i++ {
		vocab := books
		if i%2 == 1 {
			vocab = flights
		}
		k := 1 + r.Intn(4)
		seen := map[string]bool{}
		var attrs []string
		for len(attrs) < k {
			w := vocab[r.Intn(len(vocab))]
			if r.Intn(8) == 0 {
				w = noise[r.Intn(len(noise))]
			}
			if !seen[w] {
				seen[w] = true
				attrs = append(attrs, w)
			}
		}
		schemas = append(schemas, attrs)
	}
	return universe(t, schemas...)
}

// subset draws k distinct sorted ids from [0, n).
func subset(r *rand.Rand, n, k int) []schema.SourceID {
	perm := r.Perm(n)
	out := make([]schema.SourceID, 0, k)
	for _, p := range perm[:k] {
		out = append(out, schema.SourceID(p))
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestScoreMatchesMatch pins the lean Score path to the full Match path: the
// quality must be bit-identical (both sum per-GA qualities in the canonical
// GA order) and the validity bit must agree. Match here is the unsharded
// oracle, referenceMatch, as Sharded.Score clusters shard by shard.
func TestScoreMatchesMatch(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 6 + r.Intn(8)
		u := randomUniverse(t, r, n)
		m := MustNew(u, Config{Theta: 0.45})
		var cons constraint.Set
		if seed%2 == 0 {
			cons.Sources = subset(r, n, 1)
		}
		if seed%3 == 0 {
			s1 := int(subset(r, n, 1)[0])
			s2 := (s1 + 1) % n
			cons.GAs = []schema.GA{schema.NewGA(ref(s1, 0), ref(s2, 0))}
		}
		sh := m.NewSharded(cons)
		for trial := 0; trial < 10; trial++ {
			ids := subset(r, n, 2+r.Intn(n-2))
			if !cons.SatisfiedBy(ids) {
				continue
			}
			res := referenceMatch(m, ids, cons)
			q, ok, err := sh.Score(ids)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if ok != res.OK || math.Float64bits(q) != math.Float64bits(res.Quality) {
				t.Fatalf("seed %d ids %v: Score = (%v, %v), Match = (%v, %v)",
					seed, ids, q, ok, res.Quality, res.OK)
			}
		}
	}
}

// flipped returns base+{add}−{drop} sorted; add/drop < 0 mean "none".
func flipped(base []schema.SourceID, add, drop schema.SourceID) []schema.SourceID {
	out := make([]schema.SourceID, 0, len(base)+1)
	for _, s := range base {
		if s != drop {
			out = append(out, s)
		}
	}
	if add >= 0 {
		out = append(out, add)
		for j := len(out) - 1; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// sharesShard reports whether sources a and d touch a common overlay shard.
func sharesShard(sh *Sharded, a, d schema.SourceID) bool {
	for _, k := range sh.sourceShards(a) {
		if slices.Contains(sh.sourceShards(d), k) {
			return true
		}
	}
	return false
}

// addsUncached reports whether source s touches a shard no member of b's
// base touches, one the cache holds no result for.
func addsUncached(b *ShardedBase, s schema.SourceID) bool {
	for _, k := range b.sh.sourceShards(s) {
		if b.res[k] == nil {
			return true
		}
	}
	return false
}

// leavesOne reports whether the flip (+add, −drop) leaves a shard the base
// clusters (two members, no constraint GA) with one member, so that
// ScoreFlip skips it from the tags and the cached count alone.
func leavesOne(b *ShardedBase, add, drop schema.SourceID) bool {
	if drop < 0 {
		return false
	}
	for _, k := range b.sh.sourceShards(drop) {
		if r := b.res[k]; len(r.members) == 2 && !b.sh.pinned(k) &&
			(add < 0 || !slices.Contains(b.sh.sourceShards(add), k)) {
			return true
		}
	}
	return false
}

// checkPositions asserts that each cached shard's recorded position in b's
// sequence is where a binary search for its lead lands: the first reference
// of the shard's first GA, clustered afresh from its member list.
func checkPositions(t *testing.T, label string, b *ShardedBase) {
	t.Helper()
	sc := newMatchScratch()
	for k, r := range b.res {
		if r == nil {
			continue
		}
		sc.reset()
		b.sh.clusterShard(sc, r.members, int32(k))
		if len(sc.gas) != r.gas {
			t.Fatalf("%s: shard %d caches %d GAs, clusters to %d", label, k, r.gas, len(sc.gas))
		}
		if r.gas == 0 {
			continue
		}
		lead := sc.gas[0].Refs()[0]
		at, found := slices.BinarySearchFunc(b.seq, lead, func(e seqEntry, ref schema.AttrRef) int {
			return e.first.Compare(ref)
		})
		if !found || b.seq[at].shard != int32(k) || int(r.pos) != at {
			t.Fatalf("%s: shard %d records position %d, its lead %v sits at %d (found %v)",
				label, k, r.pos, lead, at, found)
		}
	}
}

// TestShardedScoreFlipMatchesMatch is the differential test of the sharded
// scorer: for random bases and every single-flip candidate, ScoreFlip must be
// bit-identical to the unsharded oracle, referenceMatch, on the flipped set —
// including after Rebase moves the cached base, which must leave every
// cached shard's recorded position where a search for its lead lands. Four
// shapes of the flip bookkeeping must each occur: swaps whose add and drop
// share a shard (every one is checked), adds into a shard the base does not
// touch, a GA-fused overlay view with a source constraint, and flips that
// leave a shard the base clusters with one member, which ScoreFlip skips.
func TestShardedScoreFlipMatchesMatch(t *testing.T) {
	shared, uncached, fusedRequired, leftOne := 0, 0, 0, 0
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(100 + seed))
		n := 8 + r.Intn(8)
		u := randomUniverse(t, r, n)
		m := MustNew(u, Config{Theta: 0.45})
		var cons constraint.Set
		if seed%2 == 0 {
			cons.Sources = subset(r, n, 1)
		}
		if seed%3 == 0 {
			// A GA constraint spanning the two name families bridges shards.
			s1 := 2 * r.Intn(n/2) % n
			s2 := (s1 + 1) % n
			cons.GAs = []schema.GA{schema.NewGA(ref(s1, 0), ref(s2, 0))}
		}
		sh := m.NewSharded(cons)
		if sh.NumShards() < 2 && len(cons.GAs) == 0 {
			t.Fatalf("seed %d: expected ≥ 2 shards, got %d", seed, sh.NumShards())
		}
		if sh.overlayOf != nil && len(cons.Sources) > 0 {
			fusedRequired++
		}

		var base []schema.SourceID
		for {
			base = subset(r, n, 3+r.Intn(n-3))
			if cons.SatisfiedBy(base) {
				break
			}
		}
		b := sh.NewBase()
		if err := b.Rebase(base); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkPositions(t, fmt.Sprintf("seed %d", seed), b)

		check := func(add, drop schema.SourceID) {
			t.Helper()
			cand := flipped(b.Base(), add, drop)
			if !cons.SatisfiedBy(cand) {
				return
			}
			res := referenceMatch(m, cand, cons)
			q, ok := b.ScoreFlip(add, drop)
			if ok != res.OK || math.Float64bits(q) != math.Float64bits(res.Quality) {
				t.Fatalf("seed %d base %v flip(+%d,-%d): ScoreFlip = (%v, %v), Match = (%v, %v)",
					seed, b.Base(), add, drop, q, ok, res.Quality, res.OK)
			}
			if leavesOne(b, add, drop) {
				leftOne++
			}
		}

		inBase := func(s schema.SourceID) bool {
			for _, x := range b.Base() {
				if x == s {
					return true
				}
			}
			return false
		}
		// Every add, every drop, and a few swaps.
		for s := schema.SourceID(0); int(s) < n; s++ {
			if inBase(s) {
				check(-1, s)
			} else {
				check(s, -1)
				if len(b.Base()) > 0 {
					check(s, b.Base()[r.Intn(len(b.Base()))])
				}
			}
		}
		// Every swap whose add and drop share a shard; count the adds into
		// a shard the base does not touch, which the loop above checked.
		for s := schema.SourceID(0); int(s) < n; s++ {
			if inBase(s) {
				continue
			}
			if addsUncached(b, s) {
				uncached++
			}
			for _, d := range b.Base() {
				if sharesShard(sh, s, d) {
					check(s, d)
					shared++
				}
			}
		}

		// Rebase onto an accepted flip and re-verify.
		var add, drop schema.SourceID = -1, -1
		for s := schema.SourceID(0); int(s) < n; s++ {
			if !inBase(s) {
				add = s
				break
			}
		}
		next := flipped(b.Base(), add, drop)
		if cons.SatisfiedBy(next) {
			if err := b.Rebase(next); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			checkPositions(t, fmt.Sprintf("seed %d rebased", seed), b)
			for s := schema.SourceID(0); int(s) < n; s++ {
				if inBase(s) {
					check(-1, s)
				} else {
					check(s, -1)
				}
			}
		}
	}
	if shared == 0 || uncached == 0 || fusedRequired == 0 || leftOne == 0 {
		t.Fatalf("%d shared-shard swaps, %d adds into uncached shards, %d fused views with a required source, "+
			"%d flips leaving a clustered shard one member; want each ≥ 1",
			shared, uncached, fusedRequired, leftOne)
	}
}

// checkFlips asserts that every single flip off b's base — each add, each
// drop and each swap that keeps cons satisfied — scores bit-identically to
// the unsharded oracle, referenceMatch, on the flipped set and to the same
// flip on fresh, an empty cache rebased onto the same subset. It returns how
// many of the swaps checked share a shard between add and drop, and how many
// of the adds touch a shard the base does not.
func checkFlips(t *testing.T, label string, m *Matcher, cons constraint.Set, b, fresh *ShardedBase) (shared, uncached int) {
	t.Helper()
	n := schema.SourceID(m.u.Len())
	in := make(map[schema.SourceID]bool)
	for _, s := range b.Base() {
		in[s] = true
	}
	check := func(add, drop schema.SourceID) {
		t.Helper()
		cand := flipped(b.Base(), add, drop)
		if !cons.SatisfiedBy(cand) {
			return
		}
		res := referenceMatch(m, cand, cons)
		q, ok := b.ScoreFlip(add, drop)
		fq, fok := fresh.ScoreFlip(add, drop)
		if ok != res.OK || math.Float64bits(q) != math.Float64bits(res.Quality) ||
			fok != ok || math.Float64bits(fq) != math.Float64bits(q) {
			t.Fatalf("%s: base %v flip(+%d,-%d): ScoreFlip = (%v, %v), fresh base = (%v, %v), Match = (%v, %v)",
				label, b.Base(), add, drop, q, ok, fq, fok, res.Quality, res.OK)
		}
	}
	for s := schema.SourceID(0); s < n; s++ {
		if in[s] {
			check(-1, s)
			continue
		}
		check(s, -1)
		if addsUncached(b, s) {
			uncached++
		}
		for _, d := range b.Base() {
			check(s, d)
			if sharesShard(b.sh, s, d) {
				shared++
			}
		}
	}
	return shared, uncached
}

// TestRebaseWalk walks one cached base through 40 accepted adds, drops and
// swaps under five constraint sets: none, one required source, a GA bridging
// the two name families, that GA with the required source (a fused overlay
// view with a source constraint), and a single-reference GA on a base source
// that no other base member shares a shard with. After every Rebase, every
// single flip must score as the unsharded oracle does and as the same flip
// on an empty cache rebased onto the same subset, and each cached shard's
// recorded position must be where a search for its lead lands, on both
// caches. Every walk must check swaps whose add and drop share a shard and
// adds into a shard the base does not touch. Each walk also drops the last
// member of some shard, so Rebase must retire that shard's cached entries.
// The lone GA's shard starts with one member, the case where a shard must be
// clustered for its constraint GA although one source alone can never merge.
func TestRebaseWalk(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	const n = 14
	u := randomUniverse(t, r, n)
	m := MustNew(u, Config{Theta: 0.45})
	base := []schema.SourceID{0, 1, 4, 7, 10}
	lone, ok := loneRef(m.NewSharded(constraint.Set{}), base)
	if !ok {
		t.Fatalf("no attribute of base %v sits in a shard no other base member touches", base)
	}
	// Source 0 draws from the book names and source 1 from the flight names
	// (randomUniverse alternates), so this GA bridges the families.
	bridge := schema.NewGA(ref(0, 0), ref(1, 0))
	for _, tc := range []struct {
		name  string
		cons  constraint.Set
		fused bool // the view's overlay must fuse shards
	}{
		{"none", constraint.Set{}, false},
		{"required", constraint.Set{Sources: []schema.SourceID{4}}, false},
		{"bridge", constraint.Set{GAs: []schema.GA{bridge}}, true},
		{"lone", constraint.Set{GAs: []schema.GA{schema.NewGA(lone)}}, false},
		{"bridge+required", constraint.Set{Sources: []schema.SourceID{4}, GAs: []schema.GA{bridge}}, true},
	} {
		sh := m.NewSharded(tc.cons)
		if tc.fused && sh.overlayOf == nil {
			t.Fatalf("%s: the bridging GA fuses no shards", tc.name)
		}
		b := sh.NewBase()
		if err := b.Rebase(base); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkPositions(t, tc.name, b)
		// lastOf returns a shard of d that no source of next touches, if
		// any: leaving for next, d was that shard's last member.
		lastOf := func(d schema.SourceID, next []schema.SourceID) (int32, bool) {
			for _, k := range sh.sourceShards(d) {
				alone := true
				for _, s := range next {
					if slices.Contains(sh.sourceShards(s), k) {
						alone = false
						break
					}
				}
				if alone {
					return k, true
				}
			}
			return 0, false
		}
		emptied, kinds, shared, uncached := 0, [3]int{}, 0, 0
		for step := 0; step < 40; step++ {
			cur := b.Base()
			var add, drop schema.SourceID = -1, -1
			var kind int
			for {
				kind = r.Intn(3) // 0 add, 1 drop, 2 swap
				add, drop = -1, -1
				if kind != 1 {
					add = schema.SourceID(r.Intn(n))
					if slices.Contains(cur, add) {
						continue
					}
				}
				if kind != 0 {
					drop = cur[r.Intn(len(cur))]
				}
				next := flipped(cur, add, drop)
				if len(next) >= 2 && len(next) < n && tc.cons.SatisfiedBy(next) {
					break
				}
			}
			// Every tenth step prefers a drop that empties a shard.
			if step%10 == 9 {
				for _, d := range cur {
					next := flipped(cur, -1, d)
					if _, ok := lastOf(d, next); ok && len(next) >= 2 && tc.cons.SatisfiedBy(next) {
						add, drop, kind = -1, d, 1
						break
					}
				}
			}
			next := flipped(cur, add, drop)
			gone, last := int32(0), false
			if drop >= 0 {
				gone, last = lastOf(drop, next)
			}
			if err := b.Rebase(next); err != nil {
				t.Fatalf("%s step %d: %v", tc.name, step, err)
			}
			kinds[kind]++
			if last {
				emptied++
				if b.res[gone] != nil {
					t.Fatalf("%s step %d: shard %d kept a result after its last member %d left",
						tc.name, step, gone, drop)
				}
			}
			fresh := sh.NewBase()
			if err := fresh.Rebase(next); err != nil {
				t.Fatalf("%s step %d: %v", tc.name, step, err)
			}
			label := fmt.Sprintf("%s step %d", tc.name, step)
			checkPositions(t, label, b)
			checkPositions(t, label+" fresh", fresh)
			s, u := checkFlips(t, label, m, tc.cons, b, fresh)
			shared, uncached = shared+s, uncached+u
		}
		if emptied == 0 || kinds[0] == 0 || kinds[1] == 0 || kinds[2] == 0 {
			t.Fatalf("%s: walk of %v adds/drops/swaps emptied %d shards; want every kind and ≥ 1 emptied shard",
				tc.name, kinds, emptied)
		}
		if shared == 0 || uncached == 0 {
			t.Fatalf("%s: walk checked %d shared-shard swaps and %d adds into uncached shards; want ≥ 1 of each",
				tc.name, shared, uncached)
		}
	}
}

// loneRef returns an attribute of a source of base whose shard no other
// source of base touches.
func loneRef(sh *Sharded, base []schema.SourceID) (schema.AttrRef, bool) {
	for _, s := range base {
		for a, sim := range sh.m.simID[s] {
			k := sh.overlay(sh.idx.shardOf[sim])
			alone := true
			for _, o := range base {
				if o != s && slices.Contains(sh.sourceShards(o), k) {
					alone = false
				}
			}
			if alone {
				return schema.AttrRef{Source: s, Attr: a}, true
			}
		}
	}
	return schema.AttrRef{}, false
}

// skipsAll reports whether the flip leaves every shard it touches with at
// most one member source and no constraint GA, so that ScoreFlip runs no
// clustering at all.
func skipsAll(b *ShardedBase, add, drop schema.SourceID) bool {
	var touched []int32
	for _, s := range []schema.SourceID{add, drop} {
		if s >= 0 {
			touched = append(touched, b.sh.sourceShards(s)...)
		}
	}
	for _, k := range touched {
		n := 0
		if r := b.res[k]; r != nil {
			n = len(r.members)
		}
		if add >= 0 && slices.Contains(b.sh.sourceShards(add), k) {
			n++
		}
		if drop >= 0 && slices.Contains(b.sh.sourceShards(drop), k) {
			n--
		}
		if n > 1 || b.sh.pinned(k) {
			return false
		}
	}
	return len(touched) > 0
}

// oneGAOnly reports whether the flip re-clusters at least one shard and
// oneGA settles every shard it re-clusters, so that ScoreFlip runs no merge
// round.
func oneGAOnly(b *ShardedBase, add, drop schema.SourceID) bool {
	sh := b.sh
	var touched []int32
	for _, s := range []schema.SourceID{add, drop} {
		if s >= 0 {
			touched = append(touched, sh.sourceShards(s)...)
		}
	}
	slices.Sort(touched)
	runs := 0
	for _, k := range slices.Compact(touched) {
		var members []schema.SourceID
		if r := b.res[k]; r != nil {
			members = r.members
		}
		a := add
		if a >= 0 && !slices.Contains(sh.sourceShards(a), k) {
			a = -1
		}
		members = flipInto(nil, members, a, drop)
		if len(members) <= 1 && !sh.pinned(k) {
			continue
		}
		sc := newMatchScratch()
		sh.seedShard(sc, members, k)
		if !sh.oneGA(sc, members, k) {
			return false
		}
		runs++
	}
	return runs > 0
}

// TestScoreFlipAllocs pins ScoreFlip's steady state: on a warmed base, an
// add, a drop, a swap, a flip whose shards are all skipped and a flip whose
// re-clustered shards oneGA all settles each allocate nothing. So does the
// whole-set Sharded.Score on strictly ascending ids, what the evaluator
// passes: only other orders pay for the id check's set.
func TestScoreFlipAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	r := rand.New(rand.NewSource(7))
	u := randomUniverse(t, r, 12)
	m := MustNew(u, Config{Theta: 0.45})
	cons := constraint.Set{Sources: []schema.SourceID{2}}
	b := m.NewSharded(cons).NewBase()
	if err := b.Rebase(ids(0, 2, 3, 5, 8)); err != nil {
		t.Fatal(err)
	}
	type flip struct {
		name      string
		add, drop schema.SourceID
	}
	flips := []flip{{"add", 6, -1}, {"drop", -1, 5}, {"swap", 7, 3}}
	for _, d := range b.Base() {
		if d != 2 && skipsAll(b, -1, d) {
			flips = append(flips, flip{"skipped", -1, d})
			break
		}
	}
	if len(flips) < 4 {
		t.Fatalf("no drop off %v leaves its shards without a clustering run", b.Base())
	}
	for s := schema.SourceID(0); int(s) < u.Len() && len(flips) < 5; s++ {
		if !slices.Contains(b.Base(), s) && oneGAOnly(b, s, -1) {
			flips = append(flips, flip{"one GA", s, -1})
		}
	}
	if len(flips) < 5 {
		t.Fatalf("no add to %v has every re-clustered shard settled by oneGA", b.Base())
	}
	for _, f := range flips[3:] {
		res := referenceMatch(m, flipped(b.Base(), f.add, f.drop), cons)
		if q, ok := b.ScoreFlip(f.add, f.drop); ok != res.OK || math.Float64bits(q) != math.Float64bits(res.Quality) {
			t.Fatalf("%s flip: ScoreFlip = (%v, %v), Match = (%v, %v)", f.name, q, ok, res.Quality, res.OK)
		}
	}
	for _, f := range flips {
		b.ScoreFlip(f.add, f.drop)
		if a := testing.AllocsPerRun(100, func() { b.ScoreFlip(f.add, f.drop) }); a != 0 {
			t.Errorf("%s: ScoreFlip allocates %v per call, want 0", f.name, a)
		}
	}
	sh := m.NewSharded(cons)
	all := u.IDs()
	if _, _, err := sh.Score(all); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { _, _, _ = sh.Score(all) }); a != 0 {
		t.Errorf("Sharded.Score on ascending ids allocates %v per call, want 0", a)
	}
}

// TestShardIndexAllocs pins the shard index build to a fixed number of
// allocations whatever the number of sources: the union-find, the component
// labels and their roots, and the per-source offsets and flat lists, the
// last presized from the attribute total.
func TestShardIndexAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	var allocs []int
	for _, n := range []int{150, 2400} {
		m := MustNew(randomUniverse(t, rand.New(rand.NewSource(5)), n), Config{Theta: 0.45})
		// AllocsPerRun reports a whole number: total allocations / runs.
		allocs = append(allocs, int(testing.AllocsPerRun(5, func() { m.buildShardIndex() })))
	}
	if allocs[0] != allocs[1] || allocs[1] > 5 {
		t.Errorf("buildShardIndex: %v allocs at 150 sources, %v at 2400; want the same, at most 5", allocs[0], allocs[1])
	}
}

// TestMatchNoConstraintsAllocs pins Matcher.Match on five Books sources with
// no constraints at four allocations: the Sharded view, and the result's GA
// slice, reference arena and quality slice. Without a GA constraint the view
// builds no overlay.
func TestMatchNoConstraintsAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	m := MustNew(testutil.BooksUniverse(t), Config{Theta: 0.45})
	set := ids(0, 1, 2, 3, 4)
	res, err := m.Match(set, constraint.Set{})
	if err != nil || len(res.Schema.GAs) == 0 {
		t.Fatalf("Match = (%v, %v), want GAs", res.Schema, err)
	}
	if a := testing.AllocsPerRun(100, func() { _, _ = m.Match(set, constraint.Set{}) }); a > 4 {
		t.Errorf("Matcher.Match without constraints allocates %v per call, want at most 4", a)
	}
}

// TestScoreFlipConcurrent exercises ScoreFlip from many goroutines against
// one cached base; the race detector validates the purity contract and every
// goroutine must see identical bits.
func TestScoreFlipConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	u := randomUniverse(t, r, 12)
	m := MustNew(u, Config{Theta: 0.45})
	sh := m.NewSharded(constraint.Set{})
	b := sh.NewBase()
	if err := b.Rebase(subset(r, 12, 6)); err != nil {
		t.Fatal(err)
	}
	type flip struct{ add, drop schema.SourceID }
	flips := []flip{{-1, b.Base()[0]}, {-1, b.Base()[3]}}
	for s := schema.SourceID(0); int(s) < 12; s++ {
		in := false
		for _, x := range b.Base() {
			if x == s {
				in = true
			}
		}
		if !in {
			flips = append(flips, flip{s, -1}, flip{s, b.Base()[1]})
		}
	}
	want := make([]uint64, len(flips))
	for i, f := range flips {
		q, _ := b.ScoreFlip(f.add, f.drop)
		want[i] = math.Float64bits(q)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, f := range flips {
				q, _ := b.ScoreFlip(f.add, f.drop)
				if math.Float64bits(q) != want[i] {
					t.Errorf("flip %d: concurrent bits differ", i)
				}
			}
		}()
	}
	wg.Wait()
}

// TestSourceGroupsPartition checks that SourceGroups is a partition of the
// universe and that sources from different groups never share a GA, and that
// a GA constraint bridging two groups fuses them.
func TestSourceGroupsPartition(t *testing.T) {
	// No shared noise words: a word appearing in sources of both families
	// would link their shards through co-occurrence and collapse the groups.
	books := []string{"title", "book title", "author", "author name"}
	flights := []string{"departure", "departure time", "arrival", "carrier"}
	r := rand.New(rand.NewSource(3))
	var schemas [][]string
	for i := 0; i < 14; i++ {
		vocab := books
		if i%2 == 1 {
			vocab = flights
		}
		k := 1 + r.Intn(3)
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
	m := MustNew(u, Config{Theta: 0.45})
	// groupOf checks that groups partition the universe and maps each
	// source to its group.
	groupOf := func(label string, groups [][]schema.SourceID) map[schema.SourceID]int {
		t.Helper()
		seen := map[schema.SourceID]int{}
		for gi, g := range groups {
			for _, s := range g {
				if prev, dup := seen[s]; dup {
					t.Fatalf("%s: source %d in groups %d and %d", label, s, prev, gi)
				}
				seen[s] = gi
			}
		}
		if len(seen) != u.Len() {
			t.Fatalf("%s: groups cover %d of %d sources", label, len(seen), u.Len())
		}
		return seen
	}
	groups := m.NewSharded(constraint.Set{}).SourceGroups()
	if len(groups) < 2 {
		t.Fatalf("expected ≥ 2 groups, got %d", len(groups))
	}
	seen := groupOf("unconstrained", groups)
	res, err := m.Match(u.IDs(), constraint.Set{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Schema.GAs {
		refs := g.Refs()
		for _, rr := range refs[1:] {
			if seen[rr.Source] != seen[refs[0].Source] {
				t.Fatalf("GA %v spans groups %d and %d", g, seen[refs[0].Source], seen[rr.Source])
			}
		}
	}

	// Source 0 draws from books and source 1 from flights, so a GA
	// constraint joining their first attributes bridges two groups.
	bridge := constraint.Set{GAs: []schema.GA{schema.NewGA(ref(0, 0), ref(1, 0))}}
	bridged := m.NewSharded(bridge).SourceGroups()
	if len(bridged) != len(groups)-1 {
		t.Fatalf("bridged: %d groups, want %d", len(bridged), len(groups)-1)
	}
	if in := groupOf("bridged", bridged); in[0] != in[1] {
		t.Fatalf("bridged: sources 0 and 1 in groups %d and %d", in[0], in[1])
	}
}

// TestShardIndexOnGrownUniverse builds the shard index, an identity view and
// a fused overlay after a source joined the matcher's universe: like
// checkIDs, they cover only the sources the matcher was built on, and the
// late source, which has no similarity ids, is in no group.
func TestShardIndexOnGrownUniverse(t *testing.T) {
	u := universe(t, []string{"title"}, []string{"author"}, []string{"title"})
	m := MustNew(u, Config{Theta: 0.45})
	if _, err := u.Add(source.Uncooperative("late", schema.NewSchema("title"))); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cons constraint.Set
		want string
	}{
		{"identity", constraint.Set{}, "[[0 2] [1]]"},
		{"fused", constraint.Set{GAs: []schema.GA{schema.NewGA(ref(0, 0), ref(1, 0))}}, "[[0 1 2]]"},
	} {
		if got := fmt.Sprint(m.NewSharded(tc.cons).SourceGroups()); got != tc.want {
			t.Errorf("%s: SourceGroups = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestShardIndexCountsPairs pins the PairCandidates accounting the ladder
// benchmark reads: a matcher's first shard view builds the index and tests
// every similarity pair once, n(n−1)/2 over n similarity ids; later views
// reuse the cached index and test none.
func TestShardIndexCountsPairs(t *testing.T) {
	for _, m := range []*Matcher{
		MustNew(randomUniverse(t, rand.New(rand.NewSource(1)), 30), Config{Theta: 0.45}),
		MustNew(hybridUniverse(t), Config{Theta: 0.5, DataWeight: 0.5}),
	} {
		n := uint64(m.SimIDs())
		before := PairCandidates()
		m.NewSharded(constraint.Set{}).SourceGroups()
		if got := PairCandidates() - before; got != n*(n-1)/2 {
			t.Fatalf("%d similarity ids: build counted %d pairs, want %d", n, got, n*(n-1)/2)
		}
		before = PairCandidates()
		m.NewSharded(constraint.Set{}).SourceGroups()
		if got := PairCandidates() - before; got != 0 {
			t.Fatalf("%d similarity ids: cached index counted %d more pairs", n, got)
		}
	}
}

// TestSourceGroupsCached: a matcher computes its identity overlay's groups
// once. A second call, through a new view whose constraints fuse no shards,
// returns the same shared slices without rebuilding them, equal to a fresh
// computation; a view whose GA constraint fuses shards computes its own, and
// so does a WithParams clone.
func TestSourceGroupsCached(t *testing.T) {
	u := universe(t, []string{"title"}, []string{"departure"}, []string{"title"}, []string{"departure"}, []string{"author"})
	m := MustNew(u, Config{Theta: 0.45})
	first := m.NewSharded(constraint.Set{}).SourceGroups()
	if got := fmt.Sprint(first); got != "[[0 2] [1 3] [4]]" {
		t.Fatalf("SourceGroups = %s, want [[0 2] [1 3] [4]]", got)
	}
	second := m.NewSharded(constraint.Set{Sources: ids(3)}).SourceGroups()
	if &second[0] != &first[0] || &second[0][0] != &first[0][0] {
		t.Error("a second identity view rebuilt the groups")
	}
	if got, want := fmt.Sprint(first), fmt.Sprint(m.NewSharded(constraint.Set{}).sourceGroups()); got != want {
		t.Errorf("cached groups %s, computed afresh %s", got, want)
	}

	fused := m.NewSharded(constraint.Set{GAs: []schema.GA{schema.NewGA(ref(0, 0), ref(1, 0))}})
	if fused.overlayOf == nil {
		t.Fatal("the bridging GA fuses no shards")
	}
	if groups := fused.SourceGroups(); len(groups) != len(first)-1 || &groups[0] == &first[0] {
		t.Errorf("fused view: %d groups sharing the cache %v; want %d of its own",
			len(groups), &groups[0] == &first[0], len(first)-1)
	}
	clone, err := m.WithParams(0.9, m.cfg.Beta, m.cfg.Linkage)
	if err != nil {
		t.Fatal(err)
	}
	if groups := clone.NewSharded(constraint.Set{}).SourceGroups(); &groups[0] == &first[0] {
		t.Error("a WithParams clone shares its parent's groups")
	}
}
