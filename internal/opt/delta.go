package opt

import (
	"fmt"
	"slices"
	"sort"

	"mube/internal/match"
	"mube/internal/pcsa"
	"mube/internal/qef"
	"mube/internal/schema"
	"mube/internal/source"
)

// deltaState is the image of one base subset S: the flip union over the
// signatures of S plus the tally of S. From it, any single-source flip S±{s}
// is scored as a pure read (see flipStats) instead of an O(|S|) re-merge.
//
// The state is mutated only between batches, on the solve goroutine
// (acquireDelta images the batch's base); during a batch's fan-out every
// worker reads it concurrently without mutation.
type deltaState struct {
	base []schema.SourceID // the subset the state images, sorted
	// union is the flip union over the signatures of base, and tally the
	// tally of base; both are built only when a QEF reads the union
	// statistics. union is nil when the universe's signature configuration
	// is invalid, since then no source carries a signature.
	union *pcsa.FlipUnion
	tally tally

	// match, when non-nil, is the cluster-sharded match image of base: each
	// flip re-clusters only the shards its add/drop sources touch and merges
	// with the cached unaffected shards (match.ShardedBase.ScoreFlip — a pure
	// concurrent-safe read, bit-identical to the whole-set Sharded.Score).
	// nil when no QEF reads the match score or the base violates the
	// constraints; flips then fall back to the whole-set Sharded.Score.
	match *match.ShardedBase
}

// image builds the tally of base and the flip union of its signatures in one
// pass. Returns the number of signatures added to the union.
func (ds *deltaState) image(u *source.Universe, base []schema.SourceID) int {
	ds.tally = tally{}
	if ds.union == nil {
		if f, err := pcsa.NewFlipUnion(u.SignatureConfig()); err == nil {
			ds.union = f
		}
	} else {
		ds.union.Reset()
	}
	added := 0
	for _, id := range base {
		s := u.Source(id)
		ds.tally = count(ds.tally, s, 1)
		if s.Signature != nil {
			if err := ds.union.Add(s.Signature); err != nil {
				// Unreachable: Universe.Add enforces a uniform config.
				panic(fmt.Sprintf("opt: flip union add: %v", err))
			}
			added++
		}
	}
	return added
}

// acquireDelta checks the cached delta state out for one batch and makes it
// the image of base. Tabu, SLS and the partitioned refinement move their
// base after every batch they continue from, so the union and tally are
// built again whenever base differs from the cached one; a repeated base,
// such as the one an annealing rejection leaves, reuses the image as it
// stands. The shard view moves by ShardedBase.Rebase, which re-clusters only
// the shards the changed sources touch. Runs on the batch's calling
// goroutine before the worker fan-out; the returned state is then immutable
// until releaseDelta.
func (e *Evaluator) acquireDelta(base []schema.SourceID) *deltaState {
	e.deltaMu.Lock()
	ds := e.deltaCached
	e.deltaCached = nil
	e.deltaMu.Unlock()
	if ds != nil && slices.Equal(ds.base, base) {
		return ds
	}
	if ds == nil {
		ds = &deltaState{}
	}
	ds.base = append(ds.base[:0], base...)
	if e.wantUnion {
		if n := ds.image(e.p.Universe, base); n > 0 {
			e.rec.Add("pcsa.counting_merges", int64(n))
		}
	}
	if !e.wantMatch {
		ds.match = nil
	} else if ds.match == nil {
		// NewBase fails only on a base violating the constraints; flips from
		// such a base are infeasible anyway, so the nil fallback is harmless.
		if b, err := e.sharded.NewBase(base); err == nil {
			ds.match = b
		}
	} else if err := ds.match.Rebase(base); err != nil {
		ds.match = nil
	}
	return ds
}

// releaseDelta checks the delta state back in after a batch's fan-out has
// joined, so the next batch can reuse its storage and shard view.
func (e *Evaluator) releaseDelta(ds *deltaState) {
	e.deltaMu.Lock()
	e.deltaCached = ds
	e.deltaMu.Unlock()
}

// validFlip reports whether mv is a true single flip against the sorted
// base: its add side absent from base, its drop side present, and the two
// distinct. Anything else (re-adding a member, dropping a non-member) still
// evaluates correctly via appendFlip's tolerant set semantics, but must take
// the full path — the delta tallies would double-count it.
func validFlip(base []schema.SourceID, mv Move) bool {
	if mv.Add >= 0 {
		if mv.Add == mv.Drop {
			return false
		}
		i := sort.Search(len(base), func(i int) bool { return base[i] >= mv.Add })
		if i < len(base) && base[i] == mv.Add {
			return false
		}
	}
	if mv.Drop >= 0 {
		i := sort.Search(len(base), func(i int) bool { return base[i] >= mv.Drop })
		if i == len(base) || base[i] != mv.Drop {
			return false
		}
	}
	return true
}

// appendFlip appends to dst the sorted subset that applying mv to the sorted
// base produces, with the same set semantics as Subset.Apply (drop first,
// then add; both tolerant of non-members/members), in one merge walk.
func appendFlip(dst, base []schema.SourceID, mv Move) []schema.SourceID {
	added := mv.Add < 0
	for _, id := range base {
		if !added && mv.Add <= id {
			dst = append(dst, mv.Add)
			added = true
			if mv.Add == id {
				continue // already in, or dropped and re-added
			}
		}
		if id == mv.Drop {
			continue
		}
		dst = append(dst, id)
	}
	if !added {
		dst = append(dst, mv.Add)
	}
	return dst
}

// EvalBatchDelta scores a whole neighborhood of flips against one base
// subset, returning Q(base±flip) for each flip in order. True single flips
// are scored incrementally — O(1 source) against the batch's shared flip
// union — and invalid flips take the full re-merge path. Memoization, budget
// accounting, and every returned quality are bit-identical to EvalBatch over
// the applied subsets. The applied subsets share one buffer per batch.
//
// base must be sorted and must not be mutated until the call returns.
func (e *Evaluator) EvalBatchDelta(base []schema.SourceID, flips []Move) []float64 {
	var b batchBufs
	return e.evalBatchDelta(base, flips, &b)
}

// evalBatchDelta is EvalBatchDelta over the buffers b, which the returned
// slice belongs to.
func (e *Evaluator) evalBatchDelta(base []schema.SourceID, flips []Move, b *batchBufs) []float64 {
	if cap(b.cands) < len(flips) {
		b.cands = make([]candidate, len(flips))
	}
	cands := b.cands[:len(flips)]
	// No applied subset is longer than len(base)+1, so buf never regrows.
	if n := len(flips) * (len(base) + 1); cap(b.ids) < n {
		b.ids = make([]schema.SourceID, 0, n)
	}
	buf := b.ids[:0]
	for i, mv := range flips {
		start := len(buf)
		buf = appendFlip(buf, base, mv)
		cands[i] = candidate{ids: buf[start:len(buf):len(buf)]}
		if validFlip(base, mv) {
			cands[i].flip = mv
			cands[i].hasFlip = true
		}
	}
	return e.evalCandidates(cands, base, b)
}

// computeFlip evaluates Q(base±flip) against the batch's immutable delta
// state: flipStats derives the union statistics and ScoreFlip F1, both as
// pure reads. Pure; safe on any worker goroutine (counter adds are
// commutative).
func (e *Evaluator) computeFlip(ids []schema.SourceID, flip Move, ds *deltaState, sc *scratch) float64 {
	if !e.p.Feasible(ids) {
		return 0
	}
	sc.ctx = qef.Context{U: e.p.Universe, IDs: ids}
	if e.wantUnion {
		st, reads := ds.flipStats(e.p.Universe, flip)
		if reads > 0 {
			e.rec.Add("pcsa.counting_merges", int64(reads))
		}
		if e.wantCoop {
			if m := coopUnion(e.p.Universe, ids, sc, &st); m > 0 {
				e.rec.Add("pcsa.merges", int64(m))
			}
		}
		sc.ctx.Union = st
	}
	switch {
	case ds.match != nil:
		// Feasible(ids) above guarantees the flipped set satisfies the
		// constraints, which ScoreFlip's cached coverage flags rely on.
		if q, ok := ds.match.ScoreFlip(flip.Add, flip.Drop); ok {
			sc.ctx.F1 = q
		}
	case e.wantMatch:
		sc.ctx.F1 = e.f1(ids)
	}
	v := e.p.Quality.Eval(&sc.ctx)
	sc.ctx = qef.Context{}
	return v
}
