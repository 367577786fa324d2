package match

import (
	"fmt"
	"slices"

	"mube/internal/constraint"
	"mube/internal/schema"
)

// cluster is Algorithm 1's unit of work. It holds no pointers: the span
// [lo, hi) indexes both scratch arenas, refs (its GA's references, sorted by
// (Source, Attr)) and names (its members' similarity ids, in merge order).
// The arenas grow in lockstep, one name per reference, so one span serves
// both. A cluster's slab index is its Algorithm 1 number, and H_sim breaks
// similarity ties by it.
type cluster struct {
	lo, hi int32

	keep       bool // seeded from a user GA constraint (or grown from one)
	everMerged bool // produced by at least one merge (multi-attribute)
	merged     bool // consumed by a merge in the current round
	mergeCand  bool // blocked this round because its partner already merged
}

// ga returns c's references as a GA view of the refs arena.
func (sc *matchScratch) ga(c cluster) schema.GA {
	return schema.GAFromSorted(sc.refs[c.lo:c.hi:c.hi])
}

// linkage returns the similarity of the clusters whose members have the
// similarity ids na and nb under the configured linkage rule. rounds reads
// the similarity of two singletons from the table itself, which both rules
// reduce to.
func (m *Matcher) linkage(na, nb []int) float64 {
	switch m.cfg.Linkage {
	case AvgLinkage:
		sum := 0.0
		for _, x := range na {
			for _, y := range nb {
				sum += m.simByID(x, y)
			}
		}
		return sum / float64(len(na)*len(nb))
	default: // MaxLinkage
		best := 0.0
		for _, x := range na {
			for _, y := range nb {
				if s := m.simByID(x, y); s > best {
					best = s
				}
			}
		}
		return best
	}
}

// maxSim is the paper's per-GA quality from the members' similarity ids: the
// maximum similarity between two of them, or 1 below two. It equals
// GAQuality of the cluster's GA, a maximum over the same pairs.
func (m *Matcher) maxSim(ids []int) float64 {
	if len(ids) < 2 {
		return 1
	}
	best := 0.0
	for x, a := range ids {
		for _, b := range ids[x+1:] {
			if s := m.simByID(a, b); s > best {
				best = s
			}
		}
	}
	return best
}

// pair is an entry of the round's priority queue H_sim.
type pair struct {
	i, j int32
	sim  float64
}

// matchScratch holds every buffer one clustering operation needs, recycled
// through the matcher's pool so steady-state Match/Score calls allocate
// (almost) nothing. Clusters, the live list and H_sim are pointer-free, so a
// run writes no pointer the garbage collector must track until collectInto
// hands out the surviving GAs.
//
// One operation (a whole-set Match or Score, a base build, a rebase or a
// flip score) runs Algorithm 1 once per shard it clusters, by the merge
// rounds or by oneGA's single pass. Seeding starts each run with an empty
// slab, rounds resets live and h, and oneGA resets uf; the arenas and the
// collected gas/quals keep growing so earlier runs' output stays valid for
// the final merge.
type matchScratch struct {
	slab   []cluster        // this run's clusters, by Algorithm 1 number
	live   []int32          // ascending slab indexes of the live clusters
	names  []int            // arena: cluster member similarity ids
	refs   []schema.AttrRef // arena: cluster GA references
	h      []pair
	uf     []int32     // oneGA's union-find parents, one per seed
	gas    []schema.GA // collected surviving GAs, canonically sorted per run
	quals  []float64   // per-GA qualities aligned with gas
	inCons map[schema.AttrRef]struct{}

	// Sharded-scoring state (see shard.go).
	ids    []schema.SourceID // one shard's member list / changed-source buffer
	shards []int32           // the shards a Rebase's changed sources touch
	flips  []flipShard       // the shards a flip touches
	keys   []uint64          // a whole set's (overlay shard, source) pairs
	fresh  []seqEntry        // the collected GAs, sorted by first reference
	// stamp[k] == epoch marks overlay shard k as touched by the current
	// flip or Rebase (see newEpoch).
	stamp []uint32
	epoch uint32
}

func newMatchScratch() *matchScratch {
	return &matchScratch{inCons: make(map[schema.AttrRef]struct{})}
}

// reset prepares the scratch for a fresh operation.
func (sc *matchScratch) reset() {
	sc.names = sc.names[:0]
	sc.refs = sc.refs[:0]
	sc.gas = sc.gas[:0]
	sc.quals = sc.quals[:0]
}

// seedGA seeds a keep cluster with a copy of constraint GA g and marks its
// references taken in sc.inCons (Algorithm 1, lines 1–2).
func (sc *matchScratch) seedGA(m *Matcher, g schema.GA) {
	lo := int32(len(sc.refs))
	for _, r := range g.Refs() {
		sc.refs = append(sc.refs, r)
		sc.names = append(sc.names, m.simID[r.Source][r.Attr])
		sc.inCons[r] = struct{}{}
	}
	sc.slab = append(sc.slab, cluster{lo: lo, hi: int32(len(sc.refs)), keep: true})
}

// seedAttr seeds the singleton cluster of attribute r, whose similarity id is
// sim (Algorithm 1, lines 3–4).
func (sc *matchScratch) seedAttr(r schema.AttrRef, sim int) {
	lo := int32(len(sc.refs))
	sc.refs = append(sc.refs, r)
	sc.names = append(sc.names, sim)
	sc.slab = append(sc.slab, cluster{lo: lo, hi: lo + 1})
}

// merge appends the union of clusters a and b, whose source sets are
// disjoint, to the slab (Algorithm 1, lines 12–14): their sorted reference
// spans merged into one sorted span of the refs arena, and their names
// concatenated, a's first.
func (sc *matchScratch) merge(a, b cluster) {
	lo := int32(len(sc.refs))
	refs := sc.refs
	ra, rb := refs[a.lo:a.hi], refs[b.lo:b.hi]
	i, j := 0, 0
	for i < len(ra) && j < len(rb) {
		if ra[i].Compare(rb[j]) < 0 {
			refs = append(refs, ra[i])
			i++
		} else {
			refs = append(refs, rb[j])
			j++
		}
	}
	refs = append(refs, ra[i:]...)
	sc.refs = append(refs, rb[j:]...)
	sc.names = append(sc.names, sc.names[a.lo:a.hi]...)
	sc.names = append(sc.names, sc.names[b.lo:b.hi]...)
	sc.slab = append(sc.slab, cluster{lo: lo, hi: int32(len(sc.refs)), keep: a.keep || b.keep, everMerged: true})
}

// scratch checks a matchScratch out of the pool.
func (m *Matcher) scratch() *matchScratch { return m.pool.Get().(*matchScratch) }

// release returns a scratch to the pool.
func (m *Matcher) release(sc *matchScratch) { m.pool.Put(sc) }

// Match runs the greedy constrained similarity clustering (Algorithm 1) over
// the attributes of the sources ids, honoring the user constraints. The ids
// must name distinct sources of the matcher's universe, and must contain
// every source required by cons (explicit source constraints and sources
// implied by GA constraints); Match returns an error otherwise — µBE's
// evaluator guarantees this precondition (§3: "we ensure for any call to
// Match(S) that S contains C"). cons must also pass constraint.Set.Validate
// on the matcher's universe, or Match returns that error: a GA constraint
// naming a missing attribute, an empty one, or two sharing an attribute
// would otherwise seed clusters no valid mediated schema can hold. A
// matcher built before the universe's last Add or Remove is an error too
// (see SchemaVersion): its similarity rows describe other sources.
//
// Per the paper, if the resulting mediated schema is not valid on the source
// constraints (some constrained source matches nothing at threshold θ), the
// result has OK == false and Quality == 0.
//
// Match is NewSharded(cons).Match(ids): it clusters shard by shard, which
// is exact (see shard.go), so callers that match many sets under one
// constraint set should build the Sharded view once.
func (m *Matcher) Match(ids []schema.SourceID, cons constraint.Set) (Result, error) {
	if err := m.checkIDs(ids, cons); err != nil {
		return Result{}, err
	}
	if v := m.u.SchemaVersion(); v != m.version {
		return Result{}, fmt.Errorf("match: matcher built at universe schema version %d, universe is at %d (rebuild or Rebind it)", m.version, v)
	}
	if err := cons.Validate(m.u); err != nil {
		return Result{}, err
	}
	return m.NewSharded(cons).Match(ids)
}

// checkIDs rejects ids that name a source outside the similarity table,
// which covers the universe as it was when the matcher was built, that name
// one source twice (its attributes would be seeded twice and one attribute
// could land in two GAs), or that lack a source cons requires. Strictly
// ascending ids, what the evaluator passes, cannot repeat, so only other
// orders pay for a set.
func (m *Matcher) checkIDs(ids []schema.SourceID, cons constraint.Set) error {
	n := schema.SourceID(len(m.simID))
	ascending := true
	for k, id := range ids {
		if id < 0 || id >= n {
			return fmt.Errorf("match: source id %d outside the %d sources the matcher was built on", id, n)
		}
		ascending = ascending && (k == 0 || ids[k-1] < id)
	}
	if !ascending {
		seen := make(map[schema.SourceID]struct{}, len(ids))
		for _, id := range ids {
			if _, dup := seen[id]; dup {
				return fmt.Errorf("match: source id %d listed twice", id)
			}
			seen[id] = struct{}{}
		}
	}
	if !cons.SatisfiedBy(ids) {
		return fmt.Errorf("match: source set %v does not contain all required sources %v",
			ids, cons.RequiredSources())
	}
	return nil
}

// spansOK reports whether every source in required contributes an attribute
// to some GA — Mediated.Spans without the coverage map.
func spansOK(gas []schema.GA, required []schema.SourceID) bool {
	for _, id := range required {
		if !coversSource(gas, id) {
			return false
		}
	}
	return true
}

// coversSource reports whether source id contributes an attribute to some GA.
func coversSource(gas []schema.GA, id schema.SourceID) bool {
	for _, g := range gas {
		if g.HasSource(id) {
			return true
		}
	}
	return false
}

// comparePairs orders the round's H_sim best first: by similarity
// descending, then by (i, j) ascending for determinism.
func comparePairs(a, b pair) int {
	switch {
	case a.sim > b.sim:
		return -1
	case a.sim < b.sim:
		return 1
	case a.i != b.i:
		return int(a.i) - int(b.i)
	}
	return int(a.j) - int(b.j)
}

// rounds runs the iterative merge rounds over the seeded slab. Merge
// products are appended, so indexes never move; sc.live lists the live
// clusters in ascending index order and is all that a round walks.
func (m *Matcher) rounds(sc *matchScratch) {
	theta := m.cfg.Theta
	live := sc.live[:0]
	for i := range sc.slab {
		live = append(live, int32(i))
	}
	for {
		// H_sim: all live pairs with similarity ≥ θ, best first (line 8).
		h := sc.h[:0]
		for x, i := range live {
			ci := sc.slab[i]
			ni := sc.names[ci.lo:ci.hi]
			for _, j := range live[x+1:] {
				cj := sc.slab[j]
				nj := sc.names[cj.lo:cj.hi]
				var s float64
				if len(ni) == 1 && len(nj) == 1 {
					s = m.simByID(ni[0], nj[0])
				} else {
					s = m.linkage(ni, nj)
				}
				if s >= theta {
					h = append(h, pair{i: i, j: j, sim: s})
				}
			}
		}
		sc.h = h
		slices.SortFunc(h, comparePairs)

		anyMerge, anyCand := false, false
		products := int32(len(sc.slab))
		for _, p := range h {
			// Clusters consumed by a merge earlier in this round carry
			// merged == true and are handled by the cases below; they were
			// alive when H_sim was built.
			c1, c2 := &sc.slab[p.i], &sc.slab[p.j]
			switch {
			case !c1.merged && !c2.merged && sc.ga(*c1).CanMerge(sc.ga(*c2)):
				// Merge c1 and c2 into a new cluster (lines 12–14). The
				// append may move the slab, so c1 and c2 are not used after.
				c1.merged, c2.merged = true, true
				sc.merge(*c1, *c2)
				anyMerge = true
			case c1.merged != c2.merged:
				// One of the pair was already consumed this round; keep the
				// other alive for the next round (lines 15–19).
				if c1.merged {
					c2.mergeCand = true
				} else {
					c1.mergeCand = true
				}
				anyCand = true
			}
		}

		// The next live list: this round's survivors in index order, minus
		// the clusters a merge consumed and those that can never merge —
		// still-singleton, not a user constraint, and not blocked by this
		// round's merges (lines 20–22) — then the merge products. Survivors
		// enter the next round with their per-round flags reset (line 7);
		// merged is already false on them, and products start clear.
		next := live[:0]
		for _, i := range live {
			if c := &sc.slab[i]; !c.merged && (c.keep || c.everMerged || c.mergeCand) {
				c.mergeCand = false
				next = append(next, i)
			}
		}
		for i := products; i < int32(len(sc.slab)); i++ {
			next = append(next, i)
		}
		live = next

		if !anyMerge && !anyCand {
			break
		}
	}
	sc.live = live
}

// collectInto appends the surviving clusters' GAs to sc.gas in canonical
// order, applying the β lower bound to GAs that do not stem from a user GA
// constraint (§2.5: θ and β apply to M − G only), and each GA's quality to
// sc.quals, computed from its members' similarity ids. Only here do GAs
// become schema.GA values.
func (m *Matcher) collectInto(sc *matchScratch) {
	out := sc.live[:0]
	for _, i := range sc.live {
		if c := sc.slab[i]; c.keep || int(c.hi-c.lo) >= m.cfg.Beta {
			out = append(out, i)
		}
	}
	slices.SortFunc(out, func(i, j int32) int { return sc.ga(sc.slab[i]).Compare(sc.ga(sc.slab[j])) })
	for _, i := range out {
		c := sc.slab[i]
		sc.gas = append(sc.gas, sc.ga(c))
		sc.quals = append(sc.quals, m.maxSim(sc.names[c.lo:c.hi]))
	}
}
