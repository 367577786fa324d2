package opt

import (
	"fmt"
	"sort"

	"mube/internal/match"
	"mube/internal/pcsa"
	"mube/internal/qef"
	"mube/internal/schema"
	"mube/internal/source"
)

// rebaseLimit caps how far a cached delta state may drift from the next
// batch's base before it is cheaper (and simpler to reason about) to rebuild
// the counting union from scratch. Local-search bases move by at most two
// sources per accepted step, so the cache survives the entire trajectory of
// tabu, SLS, and annealing; restarts and intensification jumps rebuild.
const rebaseLimit = 4

// deltaState is the incremental image of one base subset S: the subtractable
// counting union over the signatures of S plus the tally of S. From it, any
// single-source flip S±{s} is scored as a pure O(1-source) read (see
// flipStats) instead of an O(|S|) re-merge.
//
// The state is mutated only between batches, on the solve goroutine
// (acquireDelta rebases or rebuilds it); during a batch's fan-out every
// worker reads it concurrently without mutation.
type deltaState struct {
	base []schema.SourceID // the subset the state images, sorted
	// counting is the subtractable union over the signatures of base; nil
	// when the universe carries no signature configuration use at all.
	counting *pcsa.Counting
	tally    tally // the tally of base

	// match, when non-nil, is the cluster-sharded match image of base: each
	// flip re-clusters only the shards its add/drop sources touch and merges
	// with the cached unaffected shards (match.ShardedBase.ScoreFlip — a pure
	// concurrent-safe read, bit-identical to the whole-set Sharded.Score).
	// nil when no QEF reads the match score or the base violates the
	// constraints; flips then fall back to the whole-set Sharded.Score.
	match *match.ShardedBase
}

// rebuild resets ds to image base from scratch. Returns the number of
// counting-merge operations performed.
func (ds *deltaState) rebuild(u *source.Universe, base []schema.SourceID) int {
	ds.base = append(ds.base[:0], base...)
	ds.tally = tally{}
	if ds.counting == nil {
		// An invalid signature config means no source can carry a signature
		// (Universe.Add enforces the match), so a nil counting union is fine:
		// sigN stays 0 and the estimate is never read.
		if c, err := pcsa.NewCounting(u.SignatureConfig()); err == nil {
			ds.counting = c
		}
	} else {
		ds.counting.Reset()
	}
	ops := 0
	for _, id := range base {
		s := u.Source(id)
		ds.tally = count(ds.tally, s, 1)
		if s.Signature != nil {
			if err := ds.counting.Add(s.Signature); err != nil {
				// Unreachable: Universe.Add enforces a uniform config, and
				// no base comes near math.MaxUint32 sources.
				panic(fmt.Sprintf("opt: counting union add: %v", err))
			}
			ops++
		}
	}
	return ops
}

// rebase moves ds from its current base to base, incrementally when they
// differ by at most rebaseLimit sources — this is where the counting union's
// subtractability pays: an annealing chain whose base advances one accepted
// move at a time updates in O(1 source) per batch instead of re-merging |S|
// signatures. Falls back to rebuild on large diffs or on a Remove underflow.
// Returns the number of counting-merge operations performed.
func (ds *deltaState) rebase(u *source.Universe, base []schema.SourceID) int {
	added, removed := diffSorted(ds.base, base)
	if len(added)+len(removed) > rebaseLimit {
		return ds.rebuild(u, base)
	}
	ops := 0
	for _, id := range removed {
		s := u.Source(id)
		if s.Signature != nil {
			if err := ds.counting.Remove(s.Signature); err != nil {
				// Underflow leaves the counting state inconsistent; the only
				// safe recovery is a full rebuild.
				return ds.rebuild(u, base)
			}
			ops++
		}
		ds.tally = count(ds.tally, s, -1)
	}
	for _, id := range added {
		s := u.Source(id)
		if s.Signature != nil {
			if err := ds.counting.Add(s.Signature); err != nil {
				panic(fmt.Sprintf("opt: counting union add: %v", err))
			}
			ops++
		}
		ds.tally = count(ds.tally, s, 1)
	}
	ds.base = append(ds.base[:0], base...)
	return ops
}

// diffSorted returns the elements of b not in a (added) and of a not in b
// (removed); both inputs must be sorted.
func diffSorted(a, b []schema.SourceID) (added, removed []schema.SourceID) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			removed = append(removed, a[i])
			i++
		default:
			added = append(added, b[j])
			j++
		}
	}
	removed = append(removed, a[i:]...)
	added = append(added, b[j:]...)
	return added, removed
}

// acquireDelta checks the cached delta state out for one batch, rebasing it
// onto base (or building it fresh). Runs on the batch's calling goroutine
// before the worker fan-out; the returned state is then immutable until
// releaseDelta.
func (e *Evaluator) acquireDelta(base []schema.SourceID) *deltaState {
	e.deltaMu.Lock()
	ds := e.deltaCached
	e.deltaCached = nil
	e.deltaMu.Unlock()
	var ops int
	if ds == nil {
		ds = &deltaState{}
		ops = ds.rebuild(e.p.Universe, base)
	} else {
		ops = ds.rebase(e.p.Universe, base)
	}
	if ops > 0 {
		e.rec.Add("pcsa.counting_merges", int64(ops))
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
// joined, so the next batch can rebase it instead of rebuilding.
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
// are scored incrementally — O(1 source) against the batch's shared counting
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
	st, ops := ds.flipStats(e.p.Universe, flip)
	if ops > 0 {
		e.rec.Add("pcsa.counting_merges", int64(ops))
	}
	if e.wantCoop {
		if m := coopUnion(e.p.Universe, ids, sc, &st); m > 0 {
			e.rec.Add("pcsa.merges", int64(m))
		}
	}
	sc.ctx = qef.Context{U: e.p.Universe, IDs: ids, Union: st}
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
