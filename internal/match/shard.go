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
// A flip candidate S ± {s} then only needs the shards s touches re-clustered;
// every other shard's GAs and qualities are reused from the cached base. The
// final F1(S) sum runs over the k-way merge of the per-shard canonically
// sorted GA streams, which reproduces the global canonical order — and so the
// exact float bit pattern — of the unsharded path.

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
// every base attribute whose similarity id lies in the shard, in base order.
// This is exactly the restriction of seedInto's output to the shard, in the
// same relative order.
func (sh *Sharded) seedShard(sc *matchScratch, base []schema.SourceID, shard int32) {
	m := sh.m
	total := 0
	for k := range sh.cons.GAs {
		if sh.gaShard[k] == shard {
			total++
		}
	}
	for _, id := range base {
		if containsShard(sh.sourceShards(id), shard) {
			total += m.u.Source(id).Schema.Len()
		}
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
	for _, id := range base {
		if !containsShard(sh.sourceShards(id), shard) {
			continue
		}
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

// shardResult caches one shard's clustering outcome on a base subset. All
// memory is owned (deep-copied out of the scratch arenas).
type shardResult struct {
	gas     []schema.GA // canonical order
	quals   []float64   // GAQuality aligned with gas
	refs    []schema.AttrRef
	covered []bool // which cons.Sources this shard's GAs cover
}

// ShardedBase caches the per-shard clustering of one base subset so flip
// candidates off that base only re-cluster the shards the flipped source
// touches. Construction and Rebase mutate the cache and must be serialized
// by the caller; ScoreFlip is a pure read and safe to call concurrently.
type ShardedBase struct {
	sh   *Sharded
	base []schema.SourceID // sorted ascending
	res  map[int32]*shardResult
}

// NewBase clusters every shard the base touches and caches the results. The
// base must be sorted ascending and contain every source cons requires.
func (sh *Sharded) NewBase(base []schema.SourceID) (*ShardedBase, error) {
	if !sh.cons.SatisfiedBy(base) {
		return nil, fmt.Errorf("match: base %v does not contain all required sources %v",
			base, sh.cons.RequiredSources())
	}
	b := &ShardedBase{
		sh:   sh,
		base: append([]schema.SourceID(nil), base...),
		res:  make(map[int32]*shardResult),
	}
	sc := sh.m.scratch()
	defer sh.m.release(sc)
	sc.reset()
	for _, k := range b.touched(sc, b.base) {
		b.res[k] = b.computeShard(sc, k, b.base)
	}
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

// computeShard clusters one shard on base and deep-copies the result out of
// the scratch. sc.gas/sc.quals are rolled back to their pre-call lengths.
func (b *ShardedBase) computeShard(sc *matchScratch, shard int32, base []schema.SourceID) *shardResult {
	start := len(sc.gas)
	sc.resetRun()
	b.sh.seedShard(sc, base, shard)
	b.sh.m.rounds(sc)
	b.sh.m.collectInto(sc, start)

	seg, qs := sc.gas[start:], sc.quals[start:]
	r := &shardResult{}
	total := 0
	for _, g := range seg {
		total += g.Size()
	}
	r.refs = make([]schema.AttrRef, 0, total)
	r.gas = make([]schema.GA, len(seg))
	for i, g := range seg {
		s0 := len(r.refs)
		r.refs = append(r.refs, g.Refs()...)
		r.gas[i] = schema.GAFromSorted(r.refs[s0:len(r.refs):len(r.refs)])
	}
	r.quals = append([]float64(nil), qs...)
	r.covered = make([]bool, len(b.sh.cons.Sources))
	for i, s := range b.sh.cons.Sources {
		for _, g := range r.gas {
			if g.HasSource(s) {
				r.covered[i] = true
				break
			}
		}
	}
	sc.gas = sc.gas[:start]
	sc.quals = sc.quals[:start]
	return r
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

	// Symmetric difference of two sorted id lists.
	changed := sc.ids[:0]
	i, j := 0, 0
	for i < len(b.base) || j < len(newBase) {
		switch {
		case j >= len(newBase) || (i < len(b.base) && b.base[i] < newBase[j]):
			changed = append(changed, b.base[i])
			i++
		case i >= len(b.base) || newBase[j] < b.base[i]:
			changed = append(changed, newBase[j])
			j++
		default:
			i, j = i+1, j+1
		}
	}
	sc.ids = changed

	b.base = append(b.base[:0], newBase...)
	for _, k := range b.touched(sc, changed) {
		b.res[k] = b.computeShard(sc, k, b.base)
	}
	return nil
}

// gaStream is one sorted GA stream of the k-way score merge.
type gaStream struct {
	gas   []schema.GA
	quals []float64
	pos   int
}

// ScoreFlip scores the candidate base+{add}−{drop} (either may be negative
// for "none"), re-clustering only the shards add and drop touch and reusing
// the cached results everywhere else. The returned quality and validity are
// bit-identical to Matcher.Score(candidate, cons) — and so to
// Matcher.Match(candidate, cons).Quality — because the per-shard canonical
// GA streams are k-way merged back into the global canonical order before
// the float sum. Pure; safe for concurrent use.
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

	// The flipped base, kept sorted.
	ids := sc.ids[:0]
	for _, s := range b.base {
		if s == drop {
			continue
		}
		if add >= 0 && add < s {
			ids = append(ids, add)
			add = -1
		}
		if s != add {
			ids = append(ids, s)
		}
	}
	if add >= 0 {
		ids = append(ids, add)
	}
	sc.ids = ids

	// Re-cluster the affected shards, recording segment bounds.
	sc.segs = sc.segs[:0]
	for _, k := range aff {
		sc.segs = append(sc.segs, len(sc.gas))
		start := len(sc.gas)
		sc.resetRun()
		sh.seedShard(sc, ids, k)
		sh.m.rounds(sc)
		sh.m.collectInto(sc, start)
	}
	sc.segs = append(sc.segs, len(sc.gas))

	// Coverage of the explicit source constraints, fresh ∪ cached.
	covered := sc.covered[:0]
	for range sh.cons.Sources {
		covered = append(covered, false)
	}
	sc.covered = covered
	for i, s := range sh.cons.Sources {
		if covered[i] {
			continue
		}
		for _, g := range sc.gas {
			if g.HasSource(s) {
				covered[i] = true
				break
			}
		}
	}

	// Assemble the merge streams: fresh segments plus unaffected cached
	// shards. Stream enumeration order is irrelevant — the merge emits GAs
	// in the global canonical order, which is strict (GAs never repeat
	// across shards), so the float sum order is deterministic.
	streams := sc.streams[:0]
	for i := range aff {
		streams = append(streams, gaStream{
			gas:   sc.gas[sc.segs[i]:sc.segs[i+1]],
			quals: sc.quals[sc.segs[i]:sc.segs[i+1]],
		})
	}
	for k, r := range b.res {
		if containsShard(aff, k) || len(r.gas) == 0 {
			continue
		}
		streams = append(streams, gaStream{gas: r.gas, quals: r.quals})
		for i := range covered {
			if r.covered[i] {
				covered[i] = true
			}
		}
	}
	sc.streams = streams

	for _, c := range covered {
		if !c {
			return 0, false
		}
	}

	total := 0
	for _, s := range streams {
		total += len(s.gas)
	}
	if total == 0 {
		return 0, true
	}
	sum := 0.0
	for n := 0; n < total; n++ {
		best := -1
		for si := range streams {
			s := &streams[si]
			if s.pos >= len(s.gas) {
				continue
			}
			if best < 0 || s.gas[s.pos].Compare(streams[best].gas[streams[best].pos]) < 0 {
				best = si
			}
		}
		sum += streams[best].quals[streams[best].pos]
		streams[best].pos++
	}
	return sum / float64(total), true
}
