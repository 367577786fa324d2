package match

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"mube/internal/constraint"
	"mube/internal/schema"
)

// Cluster-sharded candidate scoring.
//
// Algorithm 1 only merges clusters whose similarity reaches θ, and (for both
// linkages) a cluster pair at or above θ implies at least one attribute pair
// at or above θ. Clusters therefore never span connected components of the
// θ-thresholded similarity graph over similarity ids, and clustering each
// component ("shard") independently is bit-identical to clustering globally:
// merges, merge-candidate flags, and pruning are all component-local, and the
// extra quiet rounds one component sits through while another keeps merging
// are no-ops on its terminal state. GA constraints are the one cross-shard
// bridge — a constraint GA seeds one cluster whose members may span shards —
// so shards bridged by a constraint are fused into one overlay shard.
//
// A whole set S (Sharded.Score and Sharded.Match, and so Matcher.Match) is
// therefore clustered one overlay shard at a time, each on the ascending list
// of S's sources that touch it, and the shards' GAs are merged into canonical
// order. No clustering run ever scores a pair of clusters from two shards.
//
// A flip candidate S ± {s} then only needs the shards s touches re-clustered,
// each seeded from its cached ascending member list; every other shard's GAs
// and qualities are reused from the cached base. The GAs of one match are
// pairwise disjoint, so two of them differ in their first references and
// GA.Compare orders them by first reference alone. Each base therefore keeps
// its merged GA sequence as (first reference, shard, quality) entries in
// canonical order, with running prefix sums of the qualities. A flip's F1(S)
// takes the prefix sum at the first position the flip changes, then one
// linear two-way merge of the rest of the cached sequence (affected shards
// skipped) with the fresh GAs: the same qualities added in the same order as
// whole-set Score, and so the exact same float bit pattern.

// pairCandidates counts similarity pairs tested against θ by shard-index
// builds: n(n−1)/2 per build over n similarity ids.
var pairCandidates atomic.Uint64

// PairCandidates returns the total number of similarity pairs tested against
// θ by shard-index builds in this process. Monotonic; not resettable.
func PairCandidates() uint64 { return pairCandidates.Load() }

// shardCache lazily holds a matcher's shard index and the source groups of
// its identity overlay. θ determines the graph, so WithParams clones carry a
// fresh cache.
type shardCache struct {
	once sync.Once
	idx  shardIndex

	groupsOnce sync.Once
	groups     [][]schema.SourceID
}

// shardIndex partitions similarity ids into the connected components of the
// θ-thresholded similarity graph, with flat per-source component lists.
type shardIndex struct {
	shardOf   []int32 // similarity id -> shard
	nShards   int
	srcOff    []int32 // source id -> [srcOff[s], srcOff[s+1]) into srcShards
	srcShards []int32 // sorted distinct shards touched by each source
}

// shardIdx returns the matcher's shard index, building it on first use.
func (m *Matcher) shardIdx() *shardIndex {
	m.shardc.once.Do(func() { m.shardc.idx = m.buildShardIndex() })
	return &m.shardc.idx
}

// ufFind is path-halving find over a union-find parent array.
func ufFind(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// buildShardIndex computes the θ-component index: it scans the packed
// similarity table New already filled, unions every pair at or above θ, and
// numbers the components by first-member order in the ascending id scan.
func (m *Matcher) buildShardIndex() shardIndex {
	n := m.n
	theta := m.cfg.Theta
	parent := newUnionFind(n)
	pairCandidates.Add(uint64(n) * uint64(n-1) / 2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			// Same comparison the linkage performs: widen to float64 first.
			if float64(m.table[m.packed(i, j)]) >= theta {
				ri, rj := ufFind(parent, int32(i)), ufFind(parent, int32(j))
				if ri != rj {
					parent[rj] = ri
				}
			}
		}
	}
	return m.finishShardIndex(parent)
}

// newUnionFind returns a union-find parent array of n singletons.
func newUnionFind(n int) []int32 {
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	return parent
}

// finishShardIndex labels the components and builds the per-source lists.
// Like checkIDs, the lists cover the len(m.simID) sources the matcher was
// built on: a source added to the universe since has no similarity ids.
func (m *Matcher) finishShardIndex(parent []int32) shardIndex {
	n := m.n
	idx := shardIndex{shardOf: make([]int32, n)}
	rootID := make([]int32, n)
	for i := range rootID {
		rootID[i] = -1
	}
	for i := 0; i < n; i++ {
		r := ufFind(parent, int32(i))
		if rootID[r] == -1 {
			rootID[r] = int32(idx.nShards)
			idx.nShards++
		}
		idx.shardOf[i] = rootID[r]
	}

	nSrc := len(m.simID)
	idx.srcOff = make([]int32, nSrc+1)
	// A source touches at most one shard per attribute, so the attribute
	// total bounds the flat list: it is allocated once, whatever nSrc is.
	total := 0
	for _, row := range m.simID {
		total += len(row)
	}
	idx.srcShards = make([]int32, 0, total)
	for s := 0; s < nSrc; s++ {
		start := len(idx.srcShards)
		for _, sim := range m.simID[s] {
			idx.srcShards = append(idx.srcShards, idx.shardOf[sim])
		}
		idx.srcShards = sortedDistinct(idx.srcShards, start)
		idx.srcOff[s+1] = int32(len(idx.srcShards))
	}
	return idx
}

// sortedDistinct sorts list[start:] in place, drops its repeats and returns
// list cut to the kept prefix.
func sortedDistinct(list []int32, start int) []int32 {
	tail := list[start:]
	slices.Sort(tail)
	return list[:start+len(slices.Compact(tail))]
}

// Sharded binds a matcher's shard index to one constraint set: base shards
// bridged by a GA constraint are fused into overlay shards, and every
// constraint GA is assigned to its (single) overlay shard. A Sharded is
// read-only after construction and safe for concurrent use.
type Sharded struct {
	m    *Matcher
	cons constraint.Set
	idx  *shardIndex

	nShards   int
	overlayOf []int32 // base shard -> overlay shard; nil when identity
	gaShard   []int32 // cons.GAs[k] -> overlay shard
	hasGA     []bool  // overlay shard -> some constraint GA is assigned to it; nil when none is
	srcOff    []int32
	srcShards []int32
}

// NewSharded builds the constraint-overlaid shard view for cons. Without GA
// constraints the overlay is the identity: the view shares the index's
// per-source lists and allocates nothing else.
func (m *Matcher) NewSharded(cons constraint.Set) *Sharded {
	idx := m.shardIdx()
	sh := &Sharded{m: m, cons: cons.Clone(), idx: idx,
		nShards: idx.nShards, srcOff: idx.srcOff, srcShards: idx.srcShards}
	if len(cons.GAs) == 0 {
		return sh
	}

	parent := newUnionFind(idx.nShards)
	for _, g := range cons.GAs {
		refs := g.Refs()
		r0 := ufFind(parent, idx.shardOf[m.simID[refs[0].Source][refs[0].Attr]])
		for _, r := range refs[1:] {
			rk := ufFind(parent, idx.shardOf[m.simID[r.Source][r.Attr]])
			if rk != r0 {
				parent[rk] = r0
			}
		}
	}
	overlayOf := make([]int32, idx.nShards)
	rootID := make([]int32, idx.nShards)
	for i := range rootID {
		rootID[i] = -1
	}
	n := 0
	for i := 0; i < idx.nShards; i++ {
		r := ufFind(parent, int32(i))
		if rootID[r] == -1 {
			rootID[r] = int32(n)
			n++
		}
		overlayOf[i] = rootID[r]
	}
	// Labels follow first members, so the overlay is the identity unless a
	// constraint fused two shards. Only then are the index's flat per-source
	// lists, 100k of them at scale, remapped.
	if n < idx.nShards {
		sh.nShards = n
		sh.overlayOf = overlayOf
		nSrc := len(m.simID)
		sh.srcOff = make([]int32, nSrc+1)
		// Fusing shards only shortens the lists.
		sh.srcShards = make([]int32, 0, len(idx.srcShards))
		for s := 0; s < nSrc; s++ {
			start := len(sh.srcShards)
			for _, bs := range idx.srcShards[idx.srcOff[s]:idx.srcOff[s+1]] {
				sh.srcShards = append(sh.srcShards, overlayOf[bs])
			}
			sh.srcShards = sortedDistinct(sh.srcShards, start)
			sh.srcOff[s+1] = int32(len(sh.srcShards))
		}
	}
	sh.gaShard = make([]int32, len(cons.GAs))
	sh.hasGA = make([]bool, sh.nShards)
	for k, g := range cons.GAs {
		r := g.Refs()[0]
		sh.gaShard[k] = sh.overlay(idx.shardOf[m.simID[r.Source][r.Attr]])
		sh.hasGA[sh.gaShard[k]] = true
	}
	return sh
}

func (sh *Sharded) overlay(base int32) int32 {
	if sh.overlayOf == nil {
		return base
	}
	return sh.overlayOf[base]
}

// pinned reports whether a constraint GA is assigned to overlay shard k.
func (sh *Sharded) pinned(k int32) bool { return sh.hasGA != nil && sh.hasGA[k] }

// NumShards returns the number of overlay shards.
func (sh *Sharded) NumShards() int { return sh.nShards }

// sourceShards returns the sorted distinct overlay shards source s touches.
func (sh *Sharded) sourceShards(s schema.SourceID) []int32 {
	return sh.srcShards[sh.srcOff[s]:sh.srcOff[s+1]]
}

// SourceGroups partitions the sources the matcher was built on (the first
// len(simID) of its universe; see finishShardIndex) into independent groups:
// two sources share a group iff they touch a common overlay shard
// (transitively). Clustering — and hence Match quality — of a source set
// decomposes over these groups, which is what the partitioned solve mode
// exploits. Groups are ordered by their smallest source id; sources within a
// group are ascending.
//
// The returned slices are shared and must not be modified. A view whose GA
// constraints fuse no shards has the identity overlay, whose groups depend
// on the shard index alone: they are computed once per matcher and cached
// with the index. A view whose constraints fuse shards computes its own.
func (sh *Sharded) SourceGroups() [][]schema.SourceID {
	if sh.overlayOf != nil {
		return sh.sourceGroups()
	}
	c := sh.m.shardc
	c.groupsOnce.Do(func() { c.groups = sh.sourceGroups() })
	return c.groups
}

// sourceGroups computes SourceGroups: a union-find over the overlay shards
// joins every source's shards, each source is labelled with its root's
// group, and one arena holds every group, in group order.
func (sh *Sharded) sourceGroups() [][]schema.SourceID {
	parent := newUnionFind(sh.nShards)
	nSrc := len(sh.m.simID)
	for s := 0; s < nSrc; s++ {
		list := sh.sourceShards(schema.SourceID(s))
		if len(list) < 2 {
			continue
		}
		r0 := ufFind(parent, list[0])
		for _, k := range list[1:] {
			rk := ufFind(parent, k)
			if rk != r0 {
				parent[rk] = r0
			}
		}
	}
	// Groups are numbered by their first source. groupOf[r] is 1 + the
	// group of union-find root r, 0 until a source of r is met.
	groupOf := make([]int32, sh.nShards)
	label := make([]int32, nSrc)
	var sizes []int32
	for s := range label {
		g := int32(len(sizes))
		if list := sh.sourceShards(schema.SourceID(s)); len(list) > 0 {
			r := ufFind(parent, list[0])
			if groupOf[r] == 0 {
				groupOf[r] = g + 1
			}
			g = groupOf[r] - 1
		} // else a source with no attributes forms its own group.
		if int(g) == len(sizes) {
			sizes = append(sizes, 0)
		}
		label[s] = g
		sizes[g]++
	}
	arena := make([]schema.SourceID, nSrc)
	groups := make([][]schema.SourceID, len(sizes))
	off := int32(0)
	for g, n := range sizes {
		groups[g] = arena[off : off : off+n]
		off += n
	}
	for s, g := range label {
		groups[g] = append(groups[g], schema.SourceID(s))
	}
	return groups
}

// seedShard seeds sc with shard's slice of Algorithm 1's initial clusters
// (lines 1–4): the constraint GAs assigned to the shard, then the singleton
// clusters of every attribute of members (the ascending subset sources
// touching the shard) whose similarity id lies in the shard and which no
// constraint GA holds, in subset order. This is exactly the restriction to
// the shard of seeding the whole subset, in the same relative order, and the
// only place Algorithm 1 is seeded. Only a shard holding a constraint GA
// probes sc.inCons.
func (sh *Sharded) seedShard(sc *matchScratch, members []schema.SourceID, shard int32) {
	m := sh.m
	sc.slab = sc.slab[:0]
	hasGA := sh.pinned(shard)
	if hasGA {
		clear(sc.inCons)
		for k, g := range sh.cons.GAs {
			if sh.gaShard[k] == shard {
				sc.seedGA(m, g)
			}
		}
	}
	for _, id := range members {
		for a, sim := range m.simID[id] {
			if sh.overlay(sh.idx.shardOf[sim]) != shard {
				continue
			}
			r := schema.AttrRef{Source: id, Attr: a}
			if hasGA {
				if _, taken := sc.inCons[r]; taken {
					continue
				}
			}
			sc.seedAttr(r, sim)
		}
	}
}

// skips reports whether shard k clustered on n member sources yields no GA
// without a run: at most one member source and no constraint GA. Attributes
// of one source never pass CanMerge, so its singletons never merge or block
// a merge, and the first round's prune removes every one of them.
func (sh *Sharded) skips(n int, k int32) bool { return n <= 1 && !sh.pinned(k) }

// clusterShard runs Algorithm 1 on shard k seeded from members (ascending)
// and appends the shard's GAs and qualities to sc.gas and sc.quals, in
// canonical order. A shard that skips is not run. A run that oneGA accepts
// is settled by it; every other run goes through the merge rounds.
func (sh *Sharded) clusterShard(sc *matchScratch, members []schema.SourceID, k int32) {
	if sh.skips(len(members), k) {
		return
	}
	sh.seedShard(sc, members, k)
	if sh.oneGA(sc, members, k) {
		return
	}
	sh.m.rounds(sc)
	sh.m.collectInto(sc)
}

// oneGA settles a seeded run of shard k that Algorithm 1 provably ends as one
// GA holding every seed, and reports whether it did; otherwise it writes
// nothing. That holds when no constraint GA is pinned to the shard, every
// member brings exactly one attribute, the linkage is max linkage, and the
// seeds' θ-graph (an edge wherever two seeds' similarity reaches θ) is
// connected. DESIGN.md, "The clustering kernel", has the proof. The GA is
// the seeded references, sorted because the members ascend; its quality is
// the largest similarity over the seed pairs, as collectInto's maxSim over
// the same pairs would give; it is emitted iff it has at least β members.
// One pass over the seed pairs finds both the maximum and the connectivity,
// with union-find over pooled scratch for any number of seeds. The proof
// needs at least two seeds; clusterShard's skip guarantees them.
func (sh *Sharded) oneGA(sc *matchScratch, members []schema.SourceID, k int32) bool {
	m := sh.m
	if sh.pinned(k) || len(sc.slab) != len(members) || m.cfg.Linkage != MaxLinkage {
		return false
	}
	lo, hi := sc.slab[0].lo, int32(len(sc.names))
	names := sc.names[lo:hi]
	parent := sc.uf[:0]
	for i := range names {
		parent = append(parent, int32(i))
	}
	sc.uf = parent
	theta := m.cfg.Theta
	parts, best := len(names), 0.0
	for x, a := range names {
		for y := x + 1; y < len(names); y++ {
			s := m.simByID(a, names[y])
			if s > best {
				best = s
			}
			// The comparison rounds makes.
			if s >= theta && parts > 1 {
				rx, ry := ufFind(parent, int32(x)), ufFind(parent, int32(y))
				if rx != ry {
					parent[ry] = rx
					parts--
				}
			}
		}
	}
	if parts > 1 {
		return false
	}
	if len(names) >= m.cfg.Beta {
		sc.gas = append(sc.gas, schema.GAFromSorted(sc.refs[lo:hi:hi]))
		sc.quals = append(sc.quals, best)
	}
	return true
}

// canonical fills sc.fresh with an entry per GA collected in sc.gas and sorts
// the entries by first reference. Each shard's run leaves its GAs in
// canonical order, and the GAs of one match are pairwise disjoint, so this is
// GA.Compare order over all of them. The sort is stable: should two entries
// share a first reference, which overlapping GA constraints alone could cause
// (refresh says where those are rejected), they keep their collection order.
func (sc *matchScratch) canonical() []seqEntry {
	fresh := sc.fresh[:0]
	for i, g := range sc.gas {
		fresh = append(fresh, seqEntry{first: g.Refs()[0], at: int32(i), q: sc.quals[i]})
	}
	slices.SortStableFunc(fresh, compareFirst)
	sc.fresh = fresh
	return fresh
}

// clusterSet runs Match(ids) shard by shard: it clusters every overlay shard
// the sources of ids touch on that shard's ascending member list, and returns
// the collected GAs in canonical order and whether they are valid on C: they
// must span every explicitly constrained source (disjointness and per-GA
// validity hold by construction). The member lists are sorted, so the result
// does not depend on the order of ids.
func (sh *Sharded) clusterSet(sc *matchScratch, ids []schema.SourceID) ([]seqEntry, bool, error) {
	if err := sh.m.checkIDs(ids, sh.cons); err != nil {
		return nil, false, err
	}
	sc.reset()
	// One (overlay shard, source) key per shard a source touches, packed so
	// that an integer sort groups them by shard with ascending members.
	// checkIDs bounds every id by the universe size, far below 2³².
	keys := sc.keys[:0]
	for _, id := range ids {
		for _, k := range sh.sourceShards(id) {
			keys = append(keys, uint64(k)<<32|uint64(id))
		}
	}
	slices.Sort(keys)
	sc.keys = keys
	for i := 0; i < len(keys); {
		k := int32(keys[i] >> 32)
		members := sc.ids[:0]
		for ; i < len(keys) && int32(keys[i]>>32) == k; i++ {
			members = append(members, schema.SourceID(uint32(keys[i])))
		}
		sc.ids = members
		sh.clusterShard(sc, members, k)
	}
	return sc.canonical(), spansOK(sc.gas, sh.cons.Sources), nil
}

// Score is Match without the materialized schema: F1(ids) and the validity
// bit, bit-identical to Match(ids).Quality, since both sum the same per-GA
// qualities in canonical order. It allocates nothing in steady state on
// strictly ascending ids, what the evaluator passes.
func (sh *Sharded) Score(ids []schema.SourceID) (float64, bool, error) {
	sc := sh.m.scratch()
	defer sh.m.release(sc)
	seq, ok, err := sh.clusterSet(sc, ids)
	if err != nil || !ok {
		return 0, false, err
	}
	if len(seq) == 0 {
		return 0, true, nil
	}
	sum := 0.0
	for _, e := range seq {
		sum += e.q
	}
	return sum / float64(len(seq)), true, nil
}

// Match is Matcher.Match(ids, cons) for the view's constraint set, which it
// assumes valid (constraint.Set.Validate) on the matcher's universe.
func (sh *Sharded) Match(ids []schema.SourceID) (Result, error) {
	sc := sh.m.scratch()
	defer sh.m.release(sc)
	seq, ok, err := sh.clusterSet(sc, ids)
	if err != nil || !ok {
		return Result{}, err
	}
	res := Result{OK: true, Schema: schema.Mediated{GAs: make([]schema.GA, len(seq))}}
	if len(seq) == 0 {
		return res, nil
	}
	// Deep-copy the schema out of the pooled arena in canonical order, the
	// order NewMediated would produce: results outlive the scratch. One
	// contiguous arena serves every GA of the result.
	total := 0
	for _, g := range sc.gas {
		total += g.Size()
	}
	arena := make([]schema.AttrRef, 0, total)
	res.GAQuality = make([]float64, len(seq))
	sum := 0.0
	for i, e := range seq {
		start := len(arena)
		arena = append(arena, sc.gas[e.at].Refs()...)
		res.Schema.GAs[i] = schema.GAFromSorted(arena[start:len(arena):len(arena)])
		res.GAQuality[i] = e.q
		sum += e.q
	}
	res.Quality = sum / float64(len(seq))
	return res, nil
}

// shardResult is one shard's share of a cached base: the base members that
// touch it and what clustering them yields, beyond the sequence entries.
type shardResult struct {
	members []schema.SourceID // ascending
	gas     int               // number of GAs the shard yields
	pos     int32             // position of its first GA in the base's seq, when gas > 0
	covered []bool            // which cons.Sources its GAs cover
}

// flipShard is a shard a flip touches, and whether the flip's add and its
// drop touch it.
type flipShard struct {
	k         int32
	add, drop bool
}

// seqEntry is one GA of a base's merged sequence: its first reference (the
// sort key), its overlay shard and its GAQuality. In sc.fresh, the collected
// GAs of one operation, at is the GA's index in sc.gas and shard is unset.
type seqEntry struct {
	first schema.AttrRef
	shard int32
	at    int32
	q     float64
}

func compareFirst(a, b seqEntry) int { return a.first.Compare(b.first) }

// ShardedBase caches the per-shard clustering of one base subset so flip
// candidates off that base only re-cluster the shards the flipped source
// touches. Rebase mutates the cache and must be serialized by the caller;
// ScoreFlip is a pure read and safe to call concurrently.
type ShardedBase struct {
	sh     *Sharded
	base   []schema.SourceID // sorted ascending
	res    []*shardResult    // overlay shard -> result; nil when no member touches it
	seq    []seqEntry        // every cached GA, in canonical order
	prefix []float64         // prefix[i] is the sequential sum of seq[:i]'s qualities
	cover  []int             // cons.Sources[i] -> number of shards whose GAs cover it
}

// NewBase returns the empty cache. Rebase moves it onto a base; ScoreFlip
// reads it only after a Rebase has succeeded.
func (sh *Sharded) NewBase() *ShardedBase {
	return &ShardedBase{
		sh:    sh,
		res:   make([]*shardResult, sh.nShards),
		cover: make([]int, len(sh.cons.Sources)),
	}
}

// Base returns the cached base subset. The returned slice must not be
// modified.
func (b *ShardedBase) Base() []schema.SourceID { return b.base }

// touched returns the sorted distinct shards the sources of ids touch, using
// sc.shards as scratch.
func (b *ShardedBase) touched(sc *matchScratch, ids []schema.SourceID) []int32 {
	out := sc.shards[:0]
	for _, s := range ids {
		out = append(out, b.sh.sourceShards(s)...)
	}
	slices.Sort(out)
	out = slices.Compact(out)
	sc.shards = out
	return out
}

// enter adds source s to the member list of every shard it touches.
func (b *ShardedBase) enter(s schema.SourceID) {
	for _, k := range b.sh.sourceShards(s) {
		r := b.res[k]
		if r == nil {
			r = &shardResult{}
			b.res[k] = r
		}
		i, _ := slices.BinarySearch(r.members, s)
		r.members = slices.Insert(r.members, i, s)
	}
}

// leave removes source s from the member list of every shard it touches.
func (b *ShardedBase) leave(s schema.SourceID) {
	for _, k := range b.sh.sourceShards(s) {
		r := b.res[k]
		if i, ok := slices.BinarySearch(r.members, s); ok {
			r.members = slices.Delete(r.members, i, i+1)
		}
	}
}

// newEpoch starts a marking of overlay shards: afterwards no shard is
// marked until sc.stamp[k] = sc.epoch marks shard k, and a mark is read by
// one comparison instead of a scan of the marked list.
func (sc *matchScratch) newEpoch(nShards int) {
	if len(sc.stamp) < nShards {
		sc.stamp = make([]uint32, nShards)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 {
		// Wrapped: a stamp left from 2³² epochs ago would read as marked.
		clear(sc.stamp)
		sc.epoch = 1
	}
}

// refresh re-clusters shards (sorted) on their current member lists, drops
// the results of shards left without members, and rebuilds the merged
// sequence: the entries of every other shard are kept as they are. It then
// records each shard's first position in the sequence, which moves whenever
// entries before it come or go.
func (b *ShardedBase) refresh(sc *matchScratch, shards []int32) {
	sc.newEpoch(b.sh.nShards)
	for _, k := range shards {
		sc.stamp[k] = sc.epoch
	}
	seq := b.seq[:0]
	for _, e := range b.seq {
		if sc.stamp[e.shard] != sc.epoch {
			seq = append(seq, e)
		}
	}
	for _, k := range shards {
		r := b.res[k]
		b.addCover(r, -1)
		if len(r.members) == 0 {
			b.res[k] = nil
			continue
		}
		seq = b.computeShard(sc, k, seq)
		b.addCover(r, 1)
	}
	// The GAs of one match are pairwise disjoint, so no two entries share a
	// first reference once the constraints pass constraint.Set.Validate,
	// which Matcher.Match, opt.Problem.Validate and sessions all check.
	// NewSharded does not; the sort is stable so that even overlapping GA
	// constraints keep each shard's canonical order.
	slices.SortStableFunc(seq, compareFirst)
	b.seq = seq
	// Backwards, so the last position written for a shard is its first.
	for i := len(seq) - 1; i >= 0; i-- {
		b.res[seq[i].shard].pos = int32(i)
	}
	b.prefix = append(b.prefix[:0], 0)
	sum := 0.0
	for _, e := range seq {
		sum += e.q
		b.prefix = append(b.prefix, sum)
	}
}

// addCover adds d to the coverage count of every constraint source r covers.
func (b *ShardedBase) addCover(r *shardResult, d int) {
	for i, c := range r.covered {
		if c {
			b.cover[i] += d
		}
	}
}

// computeShard clusters shard k on its member list, appends its GAs to seq as
// sequence entries, and records the shard's GA count and coverage.
// sc.gas/sc.quals are rolled back to their pre-call lengths.
func (b *ShardedBase) computeShard(sc *matchScratch, k int32, seq []seqEntry) []seqEntry {
	r := b.res[k]
	start := len(sc.gas)
	b.sh.clusterShard(sc, r.members, k)

	gas := sc.gas[start:]
	for i, g := range gas {
		seq = append(seq, seqEntry{first: g.Refs()[0], shard: k, q: sc.quals[start+i]})
	}
	r.gas = len(gas)
	if cons := b.sh.cons.Sources; len(cons) > 0 {
		r.covered = r.covered[:0]
		for _, s := range cons {
			r.covered = append(r.covered, coversSource(gas, s))
		}
	}
	sc.gas = sc.gas[:start]
	sc.quals = sc.quals[:start]
	return seq
}

// Rebase moves the cache to newBase (sorted ascending), re-clustering only
// the shards touched by sources that entered or left the base. newBase must
// contain every source cons requires; otherwise Rebase fails and leaves the
// cache as it was.
func (b *ShardedBase) Rebase(newBase []schema.SourceID) error {
	if !b.sh.cons.SatisfiedBy(newBase) {
		return fmt.Errorf("match: base %v does not contain all required sources %v",
			newBase, b.sh.cons.RequiredSources())
	}
	sc := b.sh.m.scratch()
	defer b.sh.m.release(sc)
	sc.reset()

	// Symmetric difference of two sorted id lists; each changed source
	// enters or leaves its shards' member lists.
	changed := sc.ids[:0]
	i, j := 0, 0
	for i < len(b.base) || j < len(newBase) {
		switch {
		case j >= len(newBase) || (i < len(b.base) && b.base[i] < newBase[j]):
			b.leave(b.base[i])
			changed = append(changed, b.base[i])
			i++
		case i >= len(b.base) || newBase[j] < b.base[i]:
			b.enter(newBase[j])
			changed = append(changed, newBase[j])
			j++
		default:
			i, j = i+1, j+1
		}
	}
	sc.ids = changed

	b.base = append(b.base[:0], newBase...)
	b.refresh(sc, b.touched(sc, changed))
	return nil
}

// slot returns the position of the first entry of seq[:hi] whose first
// reference is not below ref, or hi.
func (b *ShardedBase) slot(ref schema.AttrRef, hi int) int {
	i, _ := slices.BinarySearchFunc(b.seq[:hi], ref, func(e seqEntry, r schema.AttrRef) int {
		return e.first.Compare(r)
	})
	return i
}

// flipShards returns the shards a flip touches, ascending, each tagged with
// whether add and drop touch it: one merge of the add's and the drop's
// ascending shard lists (either empty for "none"), using sc.flips as scratch.
func (b *ShardedBase) flipShards(sc *matchScratch, add, drop schema.SourceID) []flipShard {
	var adds, drops []int32
	if add >= 0 {
		adds = b.sh.sourceShards(add)
	}
	if drop >= 0 {
		drops = b.sh.sourceShards(drop)
	}
	out := sc.flips[:0]
	i, j := 0, 0
	for i < len(adds) && j < len(drops) {
		switch a, d := adds[i], drops[j]; {
		case a < d:
			out = append(out, flipShard{k: a, add: true})
			i++
		case d < a:
			out = append(out, flipShard{k: d, drop: true})
			j++
		default:
			out = append(out, flipShard{k: a, add: true, drop: true})
			i, j = i+1, j+1
		}
	}
	for ; i < len(adds); i++ {
		out = append(out, flipShard{k: adds[i], add: true})
	}
	for ; j < len(drops); j++ {
		out = append(out, flipShard{k: drops[j], drop: true})
	}
	sc.flips = out
	return out
}

// flipInto appends members−{drop}+{add} to dst, ascending; add < 0 means
// none.
func flipInto(dst, members []schema.SourceID, add, drop schema.SourceID) []schema.SourceID {
	for _, s := range members {
		if add >= 0 && add < s {
			dst = append(dst, add)
			add = -1
		}
		if s != drop {
			dst = append(dst, s)
		}
	}
	if add >= 0 {
		dst = append(dst, add)
	}
	return dst
}

// ScoreFlip scores the candidate base+{add}−{drop} (either may be negative
// for "none"; add must lie outside the base and drop in it), re-clustering
// only the shards add and drop touch and reusing the cached sequence
// everywhere else. The returned quality and validity are bit-identical to
// Score(candidate) — and so to Match(candidate).Quality: the fresh GAs are
// merged into the cached canonical sequence, and the sequential float sum
// resumes from the cached prefix at the first position the flip changes.
// Besides the clustering it pays per affected shard and per sequence entry
// from that position on, with no sort of the affected shards and no scan of
// them per entry. Pure; safe for concurrent use.
func (b *ShardedBase) ScoreFlip(add, drop schema.SourceID) (float64, bool) {
	sh := b.sh
	sc := sh.m.scratch()
	defer sh.m.release(sc)
	sc.reset()

	// Mark each affected shard, and re-cluster it on its flipped member
	// list unless it skips at the member count the flip leaves, which the
	// cached list and the flip's tags give without building the list. p
	// tracks the first sequence position the flip changes: the first cached
	// entry of an affected shard or, below, the slot of the first fresh GA.
	// stale counts the cached entries of affected shards the merge must skip.
	aff := b.flipShards(sc, add, drop)
	sc.newEpoch(sh.nShards)
	p, stale := len(b.seq), 0
	for _, f := range aff {
		sc.stamp[f.k] = sc.epoch
		var members []schema.SourceID
		if r := b.res[f.k]; r != nil {
			members = r.members
			if r.gas > 0 {
				p = min(p, int(r.pos))
				stale += r.gas
			}
		}
		n, a := len(members), add
		if f.add {
			n++
		} else {
			a = -1
		}
		if f.drop {
			n--
		}
		if sh.skips(n, f.k) {
			continue
		}
		sc.ids = flipInto(sc.ids[:0], members, a, drop)
		sh.clusterShard(sc, sc.ids, f.k)
	}

	// Coverage of the explicit source constraints: the unaffected shards'
	// cached counts, else the fresh GAs.
	for i, s := range sh.cons.Sources {
		n := b.cover[i]
		for _, f := range aff {
			if r := b.res[f.k]; r != nil && r.covered[i] {
				n--
			}
		}
		if n == 0 && !coversSource(sc.gas, s) {
			return 0, false
		}
	}

	// The first fresh GA moves p only when it precedes the entry at p; its
	// slot then lies in seq[:p]. It cannot share a first reference with an
	// entry of another shard, and sharing one with the stale entry at p
	// leaves p where it is.
	seq := b.seq
	fresh := sc.canonical()
	if len(fresh) > 0 && (p == len(seq) || fresh[0].first.Compare(seq[p].first) < 0) {
		p = b.slot(fresh[0].first, p)
	}

	// Every entry before p is unaffected and precedes every fresh GA, so the
	// sum resumes from prefix[p]. Then a two-way merge of the rest of the
	// cached sequence, affected shards skipped, with the fresh GAs. A cached
	// and a fresh entry never share a first reference (their shards differ).
	sum, n := b.prefix[p], p
	i, j := p, 0
	for i < len(seq) {
		e := &seq[i]
		if stale > 0 && sc.stamp[e.shard] == sc.epoch {
			stale--
			i++
			continue
		}
		if j < len(fresh) && fresh[j].first.Compare(e.first) < 0 {
			sum += fresh[j].q
			j++
		} else {
			sum += e.q
			i++
		}
		n++
	}
	for ; j < len(fresh); j++ {
		sum += fresh[j].q
		n++
	}
	if n == 0 {
		return 0, true
	}
	return sum / float64(n), true
}
