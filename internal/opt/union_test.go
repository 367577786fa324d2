package opt

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"mube/internal/pcsa"
	"mube/internal/qef"
	"mube/internal/schema"
	"mube/internal/source"
	"mube/internal/telemetry"
)

// refStats is the reference for both union derivations: the tallies counted
// source by source, and the estimates from pcsa.Union over the signatures of
// ids and, when Redundancy reads it, over those of its cooperative sources.
func refStats(t testing.TB, u *source.Universe, ids []schema.SourceID) qef.UnionStats {
	t.Helper()
	var st qef.UnionStats
	var all, coop []*pcsa.Signature
	for _, id := range ids {
		s := u.Source(id)
		if s.Signature != nil {
			all = append(all, s.Signature)
		}
		if s.Cooperative() {
			st.CoopN++
			st.CoopSum += s.Cardinality
			coop = append(coop, s.Signature)
		} else if s.Signature != nil {
			st.CoopMixed = true
		}
	}
	estimate := func(sigs []*pcsa.Signature) float64 {
		if len(sigs) == 0 {
			return 0
		}
		un, err := pcsa.Union(sigs...)
		if err != nil {
			t.Fatal(err)
		}
		return un.Estimate()
	}
	st.UnionEst = estimate(all)
	if st.CoopMixed && st.CoopN >= 2 {
		st.CoopUnionEst = estimate(coop)
	}
	return st
}

// sameStats reports whether two union statistics agree field by field, the
// estimates bit for bit.
func sameStats(a, b qef.UnionStats) bool {
	return math.Float64bits(a.UnionEst) == math.Float64bits(b.UnionEst) &&
		a.CoopN == b.CoopN && a.CoopSum == b.CoopSum && a.CoopMixed == b.CoopMixed &&
		math.Float64bits(a.CoopUnionEst) == math.Float64bits(b.CoopUnionEst)
}

// randomSubset draws a non-empty sorted subset of all.
func randomSubset(r *rand.Rand, all []schema.SourceID) []schema.SourceID {
	n := 1 + r.Intn(len(all))
	sel := make([]schema.SourceID, 0, n)
	for _, j := range r.Perm(len(all))[:n] {
		sel = append(sel, all[j])
	}
	return SortIDs(sel)
}

// flipTo returns a base and a valid flip that turns it into sel: sel less
// one member plus that member, sel plus a non-member less that non-member,
// or a swap of the two.
func flipTo(r *rand.Rand, all, sel []schema.SourceID) ([]schema.SourceID, Move) {
	var out []schema.SourceID
	for _, id := range all {
		if !slices.Contains(sel, id) {
			out = append(out, id)
		}
	}
	mv := NoMove
	kind := r.Intn(3)
	if kind != 1 {
		mv.Add = sel[r.Intn(len(sel))]
	}
	if kind != 0 && len(out) > 0 {
		mv.Drop = out[r.Intn(len(out))]
	}
	base := slices.DeleteFunc(slices.Clone(sel), func(id schema.SourceID) bool { return id == mv.Add })
	if mv.Drop >= 0 {
		base = SortIDs(append(base, mv.Drop))
	}
	return base, mv
}

// TestScratchReuseStress threads one scratch through 2 000 seeded random
// subsets of a universe with a coop-mixed source, so both of its signatures
// are reused. For every subset the full merge, the flip from one delta state
// that images each flip's base in turn, and the reference must agree on
// every UnionStats field, and compute must score it as a fresh scratch does
// and leave the context zeroed. State leaking from one candidate to the next
// through the scratch or the reused flip union would surface as a mismatch.
func TestScratchReuseStress(t *testing.T) {
	p := mixedProblem(t, 8)
	u := p.Universe
	ev := NewEvaluator(context.Background(), p, Options{MaxEvals: -1})
	all := u.IDs()
	r := rand.New(rand.NewSource(31))
	sc := &scratch{}
	ds := &deltaState{}
	coopRead := 0
	for i := 0; i < 2000; i++ {
		sel := randomSubset(r, all)
		want := refStats(t, u, sel)
		if want.CoopMixed && want.CoopN >= 2 {
			coopRead++
		}
		if got, _ := mergeUnion(u, sel, sc, true); !sameStats(got, want) {
			t.Fatalf("iter %d, subset %v: full merge %+v, reference %+v", i, sel, got, want)
		}

		base, flip := flipTo(r, all, sel)
		if !validFlip(base, flip) || !slices.Equal(appendFlip(nil, base, flip), sel) {
			t.Fatalf("iter %d: flip %+v from %v does not give %v", i, flip, base, sel)
		}
		ds.image(u, base)
		got, _ := ds.flipStats(u, flip)
		coopUnion(u, sel, sc, &got)
		if !sameStats(got, want) {
			t.Fatalf("iter %d, subset %v: flip %+v from %v, reference %+v", i, sel, got, base, want)
		}

		q, fresh := ev.compute(sel, sc), ev.compute(sel, &scratch{})
		if math.Float64bits(q) != math.Float64bits(fresh) {
			t.Fatalf("iter %d, subset %v: Q %v with the reused scratch, %v with a fresh one", i, sel, q, fresh)
		}
		if !reflect.ValueOf(sc.ctx).IsZero() {
			t.Fatalf("iter %d: compute left the scratch's context set: %+v", i, sc.ctx)
		}
	}
	if coopRead < 100 {
		t.Fatalf("only %d subsets read the cooperative-only union; the fixture is wrong", coopRead)
	}
}

// TestScratchPerWorker mimics the evaluator's worker pool: 8 goroutines
// share the universe, read-only, but each owns one scratch, and all merge
// the same subsets at once. Run under -race, and every result must equal
// the reference.
func TestScratchPerWorker(t *testing.T) {
	u := mixedProblem(t, 8).Universe
	r := rand.New(rand.NewSource(7))
	subsets := make([][]schema.SourceID, 16)
	want := make([]qef.UnionStats, len(subsets))
	for i := range subsets {
		subsets[i] = randomSubset(r, u.IDs())
		want[i] = refStats(t, u, subsets[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := &scratch{}
			for rep := 0; rep < 50; rep++ {
				for i, sel := range subsets {
					if got, _ := mergeUnion(u, sel, sc, true); !sameStats(got, want[i]) {
						t.Errorf("subset %v: %+v, reference %+v", sel, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestMergeCounter pins pcsa.merges to the merges the weighted QEFs read,
// and pcsa.counting_merges to the signatures a delta batch adds to its union
// plus those its flips read. {0, 1, 5} holds two cooperative sources and the
// coop-mixed one: the full union costs 2 merges, and the cooperative-only
// union, which only Redundancy reads, 1 more. The flip {0, 1} + 5 reads the
// full union off the flip union of {0, 1} (two signatures added, one read),
// so it merges only the cooperative-only one; without a QEF reading the
// union it builds and reads none.
func TestMergeCounter(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		w                    qef.Weights
		full, flip, counting int64
	}{
		{"card only", qef.Weights{qef.NameCardinality: 1, qef.NameCoverage: 0, qef.NameRedundancy: 0}, 0, 0, 0},
		{"coverage", qef.Weights{qef.NameCardinality: 0.5, qef.NameCoverage: 0.5, qef.NameRedundancy: 0}, 2, 0, 3},
		{"redundancy", qef.Weights{qef.NameCardinality: 0.4, qef.NameCoverage: 0.3, qef.NameRedundancy: 0.3}, 3, 1, 3},
	} {
		p := mixedProblem(t, 8)
		q, err := qef.NewQuality(p.Quality.QEFs, tc.w)
		if err != nil {
			t.Fatal(err)
		}
		p.Quality = q
		counters := func(score func(*Evaluator)) telemetry.Snapshot {
			rec := telemetry.New(nil)
			ev := NewEvaluator(context.Background(), p, Options{MaxEvals: -1, Recorder: rec})
			score(ev)
			return rec.Snapshot()
		}
		full := counters(func(ev *Evaluator) { ev.Eval([]schema.SourceID{0, 1, 5}) })
		if got := full.Counter("pcsa.merges"); got != tc.full {
			t.Errorf("%s: full merge counted %d merges, want %d", tc.name, got, tc.full)
		}
		flip := counters(func(ev *Evaluator) {
			s := &Search{Eval: ev}
			s.EvalMoves(s.NewSubset(ids(0, 1)), []Move{{Add: 5, Drop: -1}})
		})
		if got := flip.Counter("pcsa.merges"); got != tc.flip {
			t.Errorf("%s: flip counted %d merges, want %d", tc.name, got, tc.flip)
		}
		if got := flip.Counter("pcsa.counting_merges"); got != tc.counting {
			t.Errorf("%s: flip counted %d counting merges, want %d", tc.name, got, tc.counting)
		}
	}
}
