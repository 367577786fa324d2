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
// the unsharded path, and so the exact same float bit pattern.

// pairCandidates counts similarity pairs tested against θ by shard-index
// builds: n(n−1)/2 per build over n similarity ids.
var pairCandidates atomic.Uint64

// PairCandidates returns the total number of similarity pairs tested against
// θ by shard-index builds in this process. Monotonic; not resettable.
func PairCandidates() uint64 { return pairCandidates.Load() }

// shardCache lazily holds a matcher's shard index. θ determines the graph,
// so WithParams clones carry a fresh cache.
type shardCache struct {
	once sync.Once
	idx  shardIndex
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

	nSrc := m.u.Len()
	idx.srcOff = make([]int32, nSrc+1)
	var tmp []int32
	for s := 0; s < nSrc; s++ {
		tmp = tmp[:0]
		for _, sim := range m.simID[s] {
			tmp = append(tmp, idx.shardOf[sim])
		}
		slices.Sort(tmp)
		tmp = slices.Compact(tmp)
		idx.srcShards = append(idx.srcShards, tmp...)
		idx.srcOff[s+1] = int32(len(idx.srcShards))
	}
	return idx
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
	srcOff    []int32
	srcShards []int32
}

// NewSharded builds the constraint-overlaid shard view for cons.
func (m *Matcher) NewSharded(cons constraint.Set) *Sharded {
	idx := m.shardIdx()
	sh := &Sharded{m: m, cons: cons.Clone(), idx: idx}

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
	identity := true
	for i := 0; i < idx.nShards; i++ {
		r := ufFind(parent, int32(i))
		if rootID[r] == -1 {
			rootID[r] = int32(sh.nShards)
			sh.nShards++
		}
		overlayOf[i] = rootID[r]
		if overlayOf[i] != int32(i) {
			identity = false
		}
	}
	if identity {
		// Common case (no cross-shard constraints): share the index's flat
		// per-source lists instead of remapping 100k of them.
		sh.srcOff, sh.srcShards = idx.srcOff, idx.srcShards
	} else {
		sh.overlayOf = overlayOf
		nSrc := m.u.Len()
		sh.srcOff = make([]int32, nSrc+1)
		var tmp []int32
		for s := 0; s < nSrc; s++ {
			tmp = tmp[:0]
			for _, bs := range idx.srcShards[idx.srcOff[s]:idx.srcOff[s+1]] {
				tmp = append(tmp, overlayOf[bs])
			}
			slices.Sort(tmp)
			tmp = slices.Compact(tmp)
			sh.srcShards = append(sh.srcShards, tmp...)
			sh.srcOff[s+1] = int32(len(sh.srcShards))
		}
	}
	sh.gaShard = make([]int32, len(cons.GAs))
	for k, g := range cons.GAs {
		r := g.Refs()[0]
		sh.gaShard[k] = sh.overlay(idx.shardOf[m.simID[r.Source][r.Attr]])
	}
	return sh
}

func (sh *Sharded) overlay(base int32) int32 {
	if sh.overlayOf == nil {
		return base
	}
	return sh.overlayOf[base]
}

// NumShards returns the number of overlay shards.
func (sh *Sharded) NumShards() int { return sh.nShards }

// shardOfAttr returns the overlay shard of one attribute.
func (sh *Sharded) shardOfAttr(r schema.AttrRef) int32 {
	return sh.overlay(sh.idx.shardOf[sh.m.simID[r.Source][r.Attr]])
}

// sourceShards returns the sorted distinct overlay shards source s touches.
func (sh *Sharded) sourceShards(s schema.SourceID) []int32 {
	return sh.srcShards[sh.srcOff[s]:sh.srcOff[s+1]]
}

func containsShard(list []int32, k int32) bool {
	for _, x := range list {
		if x == k {
			return true
		}
	}
	return false
}

// SourceGroups partitions the universe's sources into independent groups: two
// sources share a group iff they touch a common overlay shard (transitively).
// Clustering — and hence Match quality — of a source set decomposes over
// these groups, which is what the partitioned solve mode exploits. Groups are
// ordered by their smallest source id; sources within a group are ascending.
func (sh *Sharded) SourceGroups() [][]schema.SourceID {
	parent := newUnionFind(sh.nShards)
	nSrc := sh.m.u.Len()
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
	groupOf := make(map[int32]int)
	var groups [][]schema.SourceID
	for s := 0; s < nSrc; s++ {
		list := sh.sourceShards(schema.SourceID(s))
		if len(list) == 0 {
			// A source with no attributes forms its own group.
			groups = append(groups, []schema.SourceID{schema.SourceID(s)})
			continue
		}
		r := ufFind(parent, list[0])
		gi, ok := groupOf[r]
		if !ok {
			gi = len(groups)
			groupOf[r] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], schema.SourceID(s))
	}
	return groups
}

// seedShard seeds sc with shard's slice of Algorithm 1's initial clusters:
// the constraint GAs assigned to the shard, then the singleton clusters of
// every attribute of members (the ascending subset sources touching the
// shard) whose similarity id lies in the shard, in subset order. This is
// exactly the restriction of seedInto's output to the shard, in the same
// relative order.
func (sh *Sharded) seedShard(sc *matchScratch, members []schema.SourceID, shard int32) {
	m := sh.m
	total := 0
	for k := range sh.cons.GAs {
		if sh.gaShard[k] == shard {
			total++
		}
	}
	for _, id := range members {
		total += m.u.Source(id).Schema.Len()
	}
	sc.reserve(total)

	for k, g := range sh.cons.GAs {
		if sh.gaShard[k] != shard {
			continue
		}
		c := sc.alloc()
		c.ga = g
		c.keep = true
		for _, r := range g.Refs() {
			sc.inCons[r] = struct{}{}
		}
		c.names = sc.seedNames(m, g)
		sc.clusters = append(sc.clusters, c)
	}
	for _, id := range members {
		n := m.u.Source(id).Schema.Len()
		for a := 0; a < n; a++ {
			r := schema.AttrRef{Source: id, Attr: a}
			if sh.shardOfAttr(r) != shard {
				continue
			}
			if _, taken := sc.inCons[r]; taken {
				continue
			}
			c := sc.alloc()
			c.ga = sc.seedRef(r)
			c.names = sc.seedNames(m, c.ga)
			sc.clusters = append(sc.clusters, c)
		}
	}
}

// shardResult is one shard's share of a cached base: the base members that
// touch it and what clustering them yields, beyond the sequence entries.
type shardResult struct {
	members []schema.SourceID // ascending
	gas     int               // number of GAs the shard yields
	lead    schema.AttrRef    // first reference of its first GA, when gas > 0
	covered []bool            // which cons.Sources its GAs cover
}

// seqEntry is one GA of a base's merged sequence: its first reference (the
// sort key), its overlay shard and its GAQuality.
type seqEntry struct {
	first schema.AttrRef
	shard int32
	q     float64
}

func compareFirst(a, b seqEntry) int { return a.first.Compare(b.first) }

// ShardedBase caches the per-shard clustering of one base subset so flip
// candidates off that base only re-cluster the shards the flipped source
// touches. Construction and Rebase mutate the cache and must be serialized
// by the caller; ScoreFlip is a pure read and safe to call concurrently.
type ShardedBase struct {
	sh     *Sharded
	base   []schema.SourceID // sorted ascending
	res    []*shardResult    // overlay shard -> result; nil when no member touches it
	seq    []seqEntry        // every cached GA, in canonical order
	prefix []float64         // prefix[i] is the sequential sum of seq[:i]'s qualities
	cover  []int             // cons.Sources[i] -> number of shards whose GAs cover it
}

// NewBase clusters every shard the base touches and caches the results. The
// base must be sorted ascending and contain every source cons requires.
func (sh *Sharded) NewBase(base []schema.SourceID) (*ShardedBase, error) {
	if !sh.cons.SatisfiedBy(base) {
		return nil, fmt.Errorf("match: base %v does not contain all required sources %v",
			base, sh.cons.RequiredSources())
	}
	b := &ShardedBase{
		sh:    sh,
		base:  append([]schema.SourceID(nil), base...),
		res:   make([]*shardResult, sh.nShards),
		cover: make([]int, len(sh.cons.Sources)),
	}
	sc := sh.m.scratch()
	defer sh.m.release(sc)
	sc.reset()
	for _, s := range b.base {
		b.enter(s)
	}
	b.refresh(sc, b.touched(sc, b.base))
	return b, nil
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

// refresh re-clusters shards (sorted) on their current member lists, drops
// the results of shards left without members, and rebuilds the merged
// sequence: the entries of every other shard are kept as they are.
func (b *ShardedBase) refresh(sc *matchScratch, shards []int32) {
	seq := b.seq[:0]
	for _, e := range b.seq {
		if !containsShard(shards, e.shard) {
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
	// Stable, so entries sharing a first reference (possible only under
	// overlapping GA constraints, which constraint.Set.Validate rejects)
	// keep their shard's canonical order.
	slices.SortStableFunc(seq, compareFirst)
	b.seq = seq
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
// sequence entries, and records the shard's GA count, lead reference and
// coverage. sc.gas/sc.quals are rolled back to their pre-call lengths.
func (b *ShardedBase) computeShard(sc *matchScratch, k int32, seq []seqEntry) []seqEntry {
	r := b.res[k]
	start := len(sc.gas)
	sc.resetRun()
	b.sh.seedShard(sc, r.members, k)
	b.sh.m.rounds(sc)
	b.sh.m.collectInto(sc, start)

	gas := sc.gas[start:]
	for i, g := range gas {
		seq = append(seq, seqEntry{first: g.Refs()[0], shard: k, q: sc.quals[start+i]})
	}
	r.gas = len(gas)
	if r.gas > 0 {
		r.lead = gas[0].Refs()[0]
	}
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
// the shards touched by sources that entered or left the base.
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

// lowerBound returns the position of the first sequence entry whose first
// reference is not below ref.
func (b *ShardedBase) lowerBound(ref schema.AttrRef) int {
	i, _ := slices.BinarySearchFunc(b.seq, ref, func(e seqEntry, r schema.AttrRef) int {
		return e.first.Compare(r)
	})
	return i
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
// for "none"), re-clustering only the shards add and drop touch and reusing
// the cached sequence everywhere else. The returned quality and validity are
// bit-identical to Matcher.Score(candidate, cons) — and so to
// Matcher.Match(candidate, cons).Quality: the fresh GAs are merged into the
// cached canonical sequence, and the sequential float sum resumes from the
// cached prefix at the first position the flip changes. Pure; safe for
// concurrent use.
func (b *ShardedBase) ScoreFlip(add, drop schema.SourceID) (float64, bool) {
	sh := b.sh
	sc := sh.m.scratch()
	defer sh.m.release(sc)
	sc.reset()

	// Shards invalidated by the flip.
	aff := sc.shards[:0]
	if add >= 0 {
		aff = append(aff, sh.sourceShards(add)...)
	}
	if drop >= 0 {
		aff = append(aff, sh.sourceShards(drop)...)
	}
	slices.Sort(aff)
	aff = slices.Compact(aff)
	sc.shards = aff

	// Re-cluster each affected shard on its flipped member list. p tracks
	// the first sequence position the flip changes: the first cached entry
	// of an affected shard or, below, the slot of the first fresh GA. stale
	// counts the cached entries of affected shards the merge must skip.
	p, stale := len(b.seq), 0
	for _, k := range aff {
		var members []schema.SourceID
		if r := b.res[k]; r != nil {
			members = r.members
			if r.gas > 0 {
				p = min(p, b.lowerBound(r.lead))
				stale += r.gas
			}
		}
		a := add
		if a >= 0 && !containsShard(sh.sourceShards(a), k) {
			a = -1
		}
		sc.ids = flipInto(sc.ids[:0], members, a, drop)
		start := len(sc.gas)
		sc.resetRun()
		sh.seedShard(sc, sc.ids, k)
		sh.m.rounds(sc)
		sh.m.collectInto(sc, start)
	}

	// Coverage of the explicit source constraints: the unaffected shards'
	// cached counts, else the fresh GAs.
	for i, s := range sh.cons.Sources {
		n := b.cover[i]
		for _, k := range aff {
			if r := b.res[k]; r != nil && r.covered[i] {
				n--
			}
		}
		if n == 0 && !coversSource(sc.gas, s) {
			return 0, false
		}
	}

	// The fresh GAs in canonical order (refresh says why the sort is stable).
	fresh := sc.fresh[:0]
	for i, g := range sc.gas {
		fresh = append(fresh, seqEntry{first: g.Refs()[0], q: sc.quals[i]})
	}
	slices.SortStableFunc(fresh, compareFirst)
	sc.fresh = fresh
	if len(fresh) > 0 {
		p = min(p, b.lowerBound(fresh[0].first))
	}

	// Every entry before p is unaffected and precedes every fresh GA, so the
	// sum resumes from prefix[p]. Then a two-way merge of the rest of the
	// cached sequence, affected shards skipped, with the fresh GAs. A cached
	// and a fresh entry never share a first reference (their shards differ).
	seq := b.seq
	sum, n := b.prefix[p], p
	i, j := p, 0
	for i < len(seq) {
		e := &seq[i]
		if stale > 0 && containsShard(aff, e.shard) {
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
