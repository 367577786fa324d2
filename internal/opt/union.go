package opt

import (
	"fmt"

	"mube/internal/pcsa"
	"mube/internal/qef"
	"mube/internal/schema"
	"mube/internal/source"
)

// The union statistics over a candidate set S (qef.UnionStats) have two
// derivations, and Q(S) is bit-identical whichever one ran:
//
//   - the full merge (mergeUnion) ORs the signatures of S, in ascending id
//     order, into a pooled signature;
//   - the flip (deltaState.flipStats) reads base±flip off the flip union of
//     the batch's base, whose words are exactly the OR the full merge
//     builds.
//
// Both estimates go through pcsa's one rho-sum kernel, and both keep the
// integer part of the statistics in a tally. Redundancy's cooperative-only
// union is merged the same way on both paths (coopUnion).

// tally is the exact integer part of a set's union statistics.
type tally struct {
	sigN    int   // members with a signature
	coopN   int   // cooperative members
	mixedN  int   // members with a signature but no cardinality
	coopSum int64 // Σ|s| over cooperative members
}

// count returns t with s counted d more times: d = 1 when s joins the set,
// −1 when it leaves.
func count(t tally, s *source.Source, d int) tally {
	if s.Signature != nil {
		t.sigN += d
	}
	if s.Cooperative() {
		t.coopN += d
		t.coopSum += int64(d) * s.Cardinality
	} else if s.Signature != nil {
		t.mixedN += d
	}
	return t
}

// stats returns the union statistics of a set from its tally and the
// estimate of its union.
func stats(t tally, est float64) qef.UnionStats {
	return qef.UnionStats{UnionEst: est, CoopN: t.coopN, CoopSum: t.coopSum, CoopMixed: t.mixedN > 0}
}

// scratch is one evaluation's reusable state; the evaluator pools it, and
// each in-flight evaluation holds one. The context lives here because the
// QEF interface makes a stack context escape, one allocation per candidate.
// Scorers zero ctx once Q(S) is computed, so a pooled scratch does not keep
// the universe or the candidate set reachable. The signatures (2 KiB each
// at the default PCSA configuration) are overwritten before they are read.
type scratch struct {
	ctx   qef.Context
	union *pcsa.Signature // union over S
	coop  *pcsa.Signature // union over the cooperative sources of S
}

// mergeUnion derives the union statistics of ids by the full merge. coop
// asks for Redundancy's cooperative-only union as well. Returns the
// statistics and the number of pairwise merges.
func mergeUnion(u *source.Universe, ids []schema.SourceID, sc *scratch, coop bool) (qef.UnionStats, int) {
	var t tally
	for _, id := range ids {
		t = count(t, u.Source(id), 1)
	}
	est, merges := orSignatures(u, ids, &sc.union, false)
	st := stats(t, est)
	if coop {
		merges += coopUnion(u, ids, sc, &st)
	}
	return st, merges
}

// flipStats derives the union statistics of base±flip from the delta state:
// a pure read against the immutable state, safe from any worker goroutine.
// The tally moves by exact integer arithmetic, and the estimate comes from
// the flip union's fused EstimateDelta kernel. It leaves Redundancy's
// cooperative-only union to coopUnion. Returns the statistics and the number
// of signatures the flip reads.
//
// The caller must have verified the flip against the base (validFlip).
func (ds *deltaState) flipStats(u *source.Universe, flip Move) (qef.UnionStats, int) {
	t := ds.tally
	var addSig, dropSig *pcsa.Signature
	if flip.Add >= 0 {
		s := u.Source(flip.Add)
		t, addSig = count(t, s, 1), s.Signature
	}
	if flip.Drop >= 0 {
		s := u.Source(flip.Drop)
		t, dropSig = count(t, s, -1), s.Signature
	}
	if t.sigN == 0 {
		// The full merge's union is empty too: its estimate stays 0.
		return stats(t, 0), 0
	}
	est, err := ds.union.EstimateDelta(addSig, dropSig)
	if err != nil {
		// Unreachable: Universe.Add enforces a uniform config.
		panic(fmt.Sprintf("opt: flip union estimate: %v", err))
	}
	reads := 0
	if addSig != nil {
		reads++
	}
	if dropSig != nil {
		reads++
	}
	return stats(t, est), reads
}

// coopUnion sets st.CoopUnionEst, the union over only the cooperative
// sources of ids, in the one case Redundancy reads it: ids holds a source
// with a signature but no cardinality, and at least two cooperative ones.
// Returns the number of pairwise merges.
func coopUnion(u *source.Universe, ids []schema.SourceID, sc *scratch, st *qef.UnionStats) int {
	if !st.CoopMixed || st.CoopN < 2 {
		return 0
	}
	est, merges := orSignatures(u, ids, &sc.coop, true)
	st.CoopUnionEst = est
	return merges
}

// orSignatures ORs the signatures of ids, or of only their cooperative
// sources when coopOnly is set, into *slot in ascending id order, allocating
// it on first use. Returns the union's estimate (0 when no source has a
// signature to merge) and the number of pairwise merges.
func orSignatures(u *source.Universe, ids []schema.SourceID, slot **pcsa.Signature, coopOnly bool) (float64, int) {
	var acc *pcsa.Signature
	merges := 0
	for _, id := range ids {
		s := u.Source(id)
		if s.Signature == nil || coopOnly && !s.Cooperative() {
			continue
		}
		if acc == nil {
			if *slot == nil {
				*slot = s.Signature.Clone()
			} else {
				(*slot).CopyFrom(s.Signature)
			}
			acc = *slot
			continue
		}
		if err := acc.MergeFrom(s.Signature); err != nil {
			// Unreachable: Universe.Add enforces a uniform config.
			panic(fmt.Sprintf("opt: union of signatures: %v", err))
		}
		merges++
	}
	if acc == nil {
		return 0, 0
	}
	return acc.Estimate(), merges
}
