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
// signatures of S, the tally of S and the cluster-sharded match of S. From
// it, any single-source flip S±{s} is scored as a pure read (see flipStats
// and match.ShardedBase.ScoreFlip) instead of an O(|S|) re-merge.
//
// A Search owns one in its batch buffers. The state moves only between
// batches, on the solve goroutine (Evaluator.rebase images the batch's
// base); during a batch's fan-out every worker reads it concurrently without
// mutation.
type deltaState struct {
	base   []schema.SourceID // the subset the state images, sorted
	imaged bool              // whether base has been imaged yet
	// union is the flip union over the signatures of base, and tally the
	// tally of base; both are built only when a QEF reads the union
	// statistics. union is nil when the universe's signature configuration
	// is invalid, since then no source carries a signature.
	union *pcsa.FlipUnion
	tally tally

	// match is the cluster-sharded match image, built on the first batch
	// when a QEF reads the match score: each flip re-clusters only the
	// shards its add/drop sources touch and merges with the cached
	// unaffected shards (match.ShardedBase.ScoreFlip, a pure concurrent-safe
	// read, bit-identical to the whole-set Sharded.Score). matchOK reports
	// whether it images base. A base lacking a required source fails
	// Rebase, which leaves the cache where it was; a flip adding that source
	// is feasible, so flips off such a base take F1 from the whole-set
	// Sharded.Score instead.
	match   *match.ShardedBase
	matchOK bool
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

// rebase makes ds the image of base. Tabu, SLS and the partitioned
// refinement move their base after every batch they continue from, so the
// union and tally are built again whenever base differs from the imaged
// one; a repeated base, such as the one an annealing rejection leaves,
// reuses the image as it stands. The shard view moves by
// ShardedBase.Rebase, which re-clusters only the shards the changed sources
// touch. Runs on the batch's calling goroutine before the worker fan-out.
func (e *Evaluator) rebase(ds *deltaState, base []schema.SourceID) {
	if ds.imaged && slices.Equal(ds.base, base) {
		return
	}
	ds.imaged = true
	ds.base = append(ds.base[:0], base...)
	if e.wantUnion {
		if n := ds.image(e.p.Universe, base); n > 0 {
			e.rec.Add("pcsa.counting_merges", int64(n))
		}
	}
	if e.wantMatch {
		if ds.match == nil {
			ds.match = e.sharded.NewBase()
		}
		ds.matchOK = ds.match.Rebase(base) == nil
	}
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
	case ds.matchOK:
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
