package match

import (
	"fmt"
	"slices"

	"mube/internal/constraint"
	"mube/internal/schema"
)

// cluster is Algorithm 1's unit of work: a growing GA plus bookkeeping flags.
type cluster struct {
	ga    schema.GA
	names []int // interned similarity ids of the members, for linkage

	keep       bool // seeded from a user GA constraint (or grown from one)
	everMerged bool // produced by at least one merge (multi-attribute)
	merged     bool // consumed by a merge in the current round
	mergeCand  bool // blocked this round because its partner already merged
	dead       bool // removed from the active set
}

// linkage returns the cluster-to-cluster similarity under the configured
// linkage rule.
func (m *Matcher) linkage(a, b *cluster) float64 {
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

// pair is an entry of the round's priority queue H_sim.
type pair struct {
	i, j int
	sim  float64
}

// matchScratch holds every buffer one clustering operation needs. All slab
// and arena memory is recycled through the matcher's pool, so steady-state
// Match/Score calls allocate (almost) nothing: clusters come from a value
// slab, merged GA references and member name lists are appended to flat
// arenas, and the pair heap, GA list, and quality list reuse their backing
// arrays.
//
// One operation (Match, Score, or a sharded flip score) may run the cluster
// rounds several times — once per affected shard. Per-run state (slab,
// clusters, h) is reset between runs; the arenas and the collected gas/quals
// keep growing so earlier runs' output stays valid for the final merge.
type matchScratch struct {
	slab     []cluster
	clusters []*cluster
	names    []int            // arena: cluster member similarity ids
	refs     []schema.AttrRef // arena: merged/seeded GA references
	h        []pair
	gas      []schema.GA // collected surviving GAs, canonically sorted per segment
	quals    []float64   // GAQuality aligned with gas
	inCons   map[schema.AttrRef]struct{}

	// Sharded-scoring state (see shard.go).
	ids    []schema.SourceID // flipped member list / changed-source buffer
	shards []int32           // affected-shard buffer
	fresh  []seqEntry        // a flip's re-clustered GAs, sorted by first reference
}

func newMatchScratch() *matchScratch {
	return &matchScratch{inCons: make(map[schema.AttrRef]struct{})}
}

// reset prepares the scratch for a fresh operation.
func (sc *matchScratch) reset() {
	sc.resetRun()
	sc.names = sc.names[:0]
	sc.refs = sc.refs[:0]
	sc.gas = sc.gas[:0]
	sc.quals = sc.quals[:0]
}

// resetRun prepares for one clustering run within an operation. Arenas and
// the collected gas/quals are deliberately kept: earlier runs' GAs reference
// the refs arena.
func (sc *matchScratch) resetRun() {
	sc.slab = sc.slab[:0]
	sc.clusters = sc.clusters[:0]
	sc.h = sc.h[:0]
	clear(sc.inCons)
}

// alloc hands out a zeroed cluster from the slab. reserve should have sized
// the slab beforehand; if a merge cascade outgrows it anyway, append still
// yields a valid cluster (older pointers keep pointing into the old backing
// array, which is correct — clusters are only reached through sc.clusters).
func (sc *matchScratch) alloc() *cluster {
	if len(sc.slab) < cap(sc.slab) {
		sc.slab = sc.slab[:len(sc.slab)+1]
	} else {
		sc.slab = append(sc.slab, cluster{})
	}
	c := &sc.slab[len(sc.slab)-1]
	*c = cluster{}
	return c
}

// reserve sizes the slab for n initial clusters. Every merge consumes two
// clusters and appends one, so a run that starts with n clusters touches at
// most 2n−1 slab slots.
func (sc *matchScratch) reserve(n int) {
	if need := 2 * n; cap(sc.slab) < need {
		sc.slab = make([]cluster, 0, need)
	}
}

// seedRef appends a singleton seed reference to the refs arena and returns
// the adopted one-element GA.
func (sc *matchScratch) seedRef(r schema.AttrRef) schema.GA {
	start := len(sc.refs)
	sc.refs = append(sc.refs, r)
	return schema.GAFromSorted(sc.refs[start:len(sc.refs):len(sc.refs)])
}

// seedNames appends the similarity ids of g's members to the names arena.
func (sc *matchScratch) seedNames(m *Matcher, g schema.GA) []int {
	start := len(sc.names)
	for _, r := range g.Refs() {
		sc.names = append(sc.names, m.simID[r.Source][r.Attr])
	}
	return sc.names[start:len(sc.names):len(sc.names)]
}

// mergeNames concatenates two member lists into the names arena.
func (sc *matchScratch) mergeNames(a, b []int) []int {
	start := len(sc.names)
	sc.names = append(sc.names, a...)
	sc.names = append(sc.names, b...)
	return sc.names[start:len(sc.names):len(sc.names)]
}

// mergeGA merges two GAs with disjoint source sets (CanMerge holds) into the
// refs arena, preserving (Source, Attr) order. Equivalent to a.Union(b)
// without the sort or the allocation.
func (sc *matchScratch) mergeGA(a, b schema.GA) schema.GA {
	ra, rb := a.Refs(), b.Refs()
	start := len(sc.refs)
	i, j := 0, 0
	for i < len(ra) && j < len(rb) {
		if ra[i].Compare(rb[j]) < 0 {
			sc.refs = append(sc.refs, ra[i])
			i++
		} else {
			sc.refs = append(sc.refs, rb[j])
			j++
		}
	}
	sc.refs = append(sc.refs, ra[i:]...)
	sc.refs = append(sc.refs, rb[j:]...)
	return schema.GAFromSorted(sc.refs[start:len(sc.refs):len(sc.refs)])
}

// scratch checks a matchScratch out of the pool.
func (m *Matcher) scratch() *matchScratch { return m.pool.Get().(*matchScratch) }

// release returns a scratch to the pool.
func (m *Matcher) release(sc *matchScratch) { m.pool.Put(sc) }

// Match runs the greedy constrained similarity clustering (Algorithm 1) over
// the attributes of the sources ids, honoring the user constraints. The set
// ids must contain every source required by cons (explicit source
// constraints and sources implied by GA constraints); Match returns an error
// otherwise — µBE's evaluator guarantees this precondition (§3: "we ensure
// for any call to Match(S) that S contains C").
//
// Per the paper, if the resulting mediated schema is not valid on the source
// constraints (some constrained source matches nothing at threshold θ), the
// result has OK == false and Quality == 0.
func (m *Matcher) Match(ids []schema.SourceID, cons constraint.Set) (Result, error) {
	if !cons.SatisfiedBy(ids) {
		return Result{}, fmt.Errorf("match: source set %v does not contain all required sources %v",
			ids, cons.RequiredSources())
	}

	sc := m.scratch()
	defer m.release(sc)
	sc.reset()
	m.seedInto(sc, ids, cons)
	m.rounds(sc)
	m.collectInto(sc, 0)

	// Deep-copy the schema out of the pooled arena: results outlive the
	// scratch. One contiguous arena serves every GA of the result.
	total := 0
	for _, g := range sc.gas {
		total += g.Size()
	}
	arena := make([]schema.AttrRef, 0, total)
	gas := make([]schema.GA, len(sc.gas))
	for i, g := range sc.gas {
		start := len(arena)
		arena = append(arena, g.Refs()...)
		gas[i] = schema.GAFromSorted(arena[start:len(arena):len(arena)])
	}
	// sc.gas is already in canonical (GA.Compare) order — the order
	// NewMediated would produce.
	med := schema.Mediated{GAs: gas}

	res := Result{Schema: med}
	if med.Len() > 0 {
		res.GAQuality = append([]float64(nil), sc.quals...)
		sum := 0.0
		for _, q := range sc.quals {
			sum += q
		}
		res.Quality = sum / float64(med.Len())
	}
	// Validity on C: the schema must span every explicitly constrained
	// source (disjointness and per-GA validity hold by construction).
	if !spansOK(sc.gas, cons.Sources) {
		return Result{OK: false}, nil
	}
	res.OK = true
	return res, nil
}

// Score is Match without the materialized schema: it returns F1(S) and the
// validity bit, allocating nothing in steady state. The quality is
// bit-identical to Match(ids, cons).Quality — both sum per-GA qualities in
// the canonical GA order — so the evaluator can use Score on every candidate
// and reserve Match for reporting solutions.
func (m *Matcher) Score(ids []schema.SourceID, cons constraint.Set) (float64, bool, error) {
	if !cons.SatisfiedBy(ids) {
		return 0, false, fmt.Errorf("match: source set %v does not contain all required sources %v",
			ids, cons.RequiredSources())
	}
	sc := m.scratch()
	defer m.release(sc)
	sc.reset()
	m.seedInto(sc, ids, cons)
	m.rounds(sc)
	m.collectInto(sc, 0)
	if !spansOK(sc.gas, cons.Sources) {
		return 0, false, nil
	}
	if len(sc.gas) == 0 {
		return 0, true, nil
	}
	sum := 0.0
	for _, q := range sc.quals {
		sum += q
	}
	return sum / float64(len(sc.gas)), true, nil
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

// seedInto builds the initial cluster set: one cluster per user GA constraint
// (keep = TRUE), then one singleton cluster per remaining attribute of every
// source in ids (Algorithm 1, lines 1–4).
func (m *Matcher) seedInto(sc *matchScratch, ids []schema.SourceID, cons constraint.Set) {
	total := len(cons.GAs)
	for _, id := range ids {
		total += m.u.Source(id).Schema.Len()
	}
	sc.reserve(total)

	for _, g := range cons.GAs {
		c := sc.alloc()
		c.ga = g
		c.keep = true
		for _, r := range g.Refs() {
			sc.inCons[r] = struct{}{}
		}
		c.names = sc.seedNames(m, g)
		sc.clusters = append(sc.clusters, c)
	}
	for _, id := range ids {
		n := m.u.Source(id).Schema.Len()
		for a := 0; a < n; a++ {
			r := schema.AttrRef{Source: id, Attr: a}
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

// comparePairs orders the round's H_sim best first: by similarity
// descending, then by (i, j) ascending for determinism.
func comparePairs(a, b pair) int {
	switch {
	case a.sim > b.sim:
		return -1
	case a.sim < b.sim:
		return 1
	case a.i != b.i:
		return a.i - b.i
	}
	return a.j - b.j
}

// rounds runs the iterative merge rounds over sc.clusters (dead clusters are
// marked rather than removed so indexes stay stable, and merge products are
// appended).
func (m *Matcher) rounds(sc *matchScratch) {
	theta := m.cfg.Theta
	for {
		// Reset per-round flags (Algorithm 1, line 7).
		for _, c := range sc.clusters {
			if !c.dead {
				c.merged, c.mergeCand = false, false
			}
		}

		// H_sim: all live pairs with similarity ≥ θ, best first (line 8).
		h := sc.h[:0]
		for i := 0; i < len(sc.clusters); i++ {
			ci := sc.clusters[i]
			if ci.dead {
				continue
			}
			for j := i + 1; j < len(sc.clusters); j++ {
				cj := sc.clusters[j]
				if cj.dead {
					continue
				}
				if s := m.linkage(ci, cj); s >= theta {
					h = append(h, pair{i: i, j: j, sim: s})
				}
			}
		}
		sc.h = h
		slices.SortFunc(h, comparePairs)

		anyMerge, anyCand := false, false
		for _, p := range h {
			// Clusters consumed by a merge earlier in this round carry
			// merged == true and are handled by the cases below; they were
			// alive when H_sim was built.
			c1, c2 := sc.clusters[p.i], sc.clusters[p.j]
			switch {
			case !c1.merged && !c2.merged && c1.ga.CanMerge(c2.ga):
				// Merge c1 and c2 into a new cluster (lines 12–14).
				nc := sc.alloc()
				nc.ga = sc.mergeGA(c1.ga, c2.ga)
				nc.names = sc.mergeNames(c1.names, c2.names)
				nc.keep = c1.keep || c2.keep
				nc.everMerged = true
				c1.merged, c2.merged = true, true
				c1.dead, c2.dead = true, true
				sc.clusters = append(sc.clusters, nc)
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

		// Prune clusters that can never merge: still-singleton, not a user
		// constraint, and not blocked by this round's merges (lines 20–22).
		for _, c := range sc.clusters {
			if c.dead || c.keep || c.everMerged || c.mergeCand {
				continue
			}
			c.dead = true
		}

		if !anyMerge && !anyCand {
			return
		}
	}
}

// collectInto gathers the surviving clusters into sc.gas, applying the β
// lower bound to GAs that do not stem from a user GA constraint (§2.5: θ and
// β apply to M − G only), sorts the new segment [start:] canonically, and
// appends the aligned per-GA qualities to sc.quals.
func (m *Matcher) collectInto(sc *matchScratch, start int) {
	for _, c := range sc.clusters {
		if c.dead {
			continue
		}
		if !c.keep && c.ga.Size() < m.cfg.Beta {
			continue
		}
		sc.gas = append(sc.gas, c.ga)
	}
	seg := sc.gas[start:]
	slices.SortFunc(seg, schema.GA.Compare)
	for _, g := range seg {
		sc.quals = append(sc.quals, m.GAQuality(g))
	}
}
