package opt

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mube/internal/constraint"
	"mube/internal/pcsa"
	"mube/internal/qef"
	"mube/internal/schema"
	"mube/internal/source"
	"mube/internal/telemetry"
)

// mixedProblem builds a problem over a hand-made universe containing every
// source species the delta tallies must track: cooperative, uncooperative
// (no signature), and coop-mixed (signature, no cardinality).
func mixedProblem(t testing.TB, maxSources int) *Problem {
	t.Helper()
	cfg := pcsa.Config{NumMaps: 64}
	u := source.NewUniverse(cfg)
	add := func(s *source.Source) {
		t.Helper()
		if _, err := u.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	tuples := func(lo, hi uint64) source.TupleIterator {
		ts := make([]source.TupleID, 0, hi-lo)
		for x := lo; x < hi; x++ {
			ts = append(ts, x)
		}
		return source.NewSliceIterator(ts)
	}
	coop := func(name string, lo, hi uint64, attrs ...string) *source.Source {
		s, err := source.FromTuples(name, schema.NewSchema(attrs...), tuples(lo, hi), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	add(coop("a", 0, 8000, "title"))
	add(coop("b", 4000, 12000, "title"))
	add(coop("c", 0, 6000, "name"))
	add(coop("d", 10000, 20000, "title"))
	add(source.Uncooperative("shy", schema.NewSchema("title")))
	mixed := coop("mixed", 5000, 15000, "title")
	mixed.Cardinality = -1 // signature without cardinality: the coopMixed case
	add(mixed)
	add(coop("e", 18000, 25000, "name"))
	add(source.Uncooperative("shy2", schema.NewSchema("name")))
	u.Precompute()

	q, err := qef.NewQuality(
		[]qef.QEF{qef.Cardinality{}, qef.Coverage{}, qef.Redundancy{}},
		qef.Weights{
			qef.NameCardinality: 0.4,
			qef.NameCoverage:    0.3,
			qef.NameRedundancy:  0.3,
		})
	if err != nil {
		t.Fatal(err)
	}
	return &Problem{Universe: u, Quality: q, MaxSources: maxSources}
}

// assertSameEvaluator compares two evaluators' observable state: memo
// contents (bit for bit), evals, and calls.
func assertSameEvaluator(t *testing.T, label string, a, b *Evaluator) {
	t.Helper()
	if a.Evals() != b.Evals() || a.Calls() != b.Calls() {
		t.Errorf("%s: evals/calls %d/%d != %d/%d", label, a.Evals(), a.Calls(), b.Evals(), b.Calls())
	}
	a.mu.Lock()
	b.mu.Lock()
	defer a.mu.Unlock()
	defer b.mu.Unlock()
	if len(a.memo) != len(b.memo) {
		t.Errorf("%s: memo sizes differ: %d vs %d", label, len(a.memo), len(b.memo))
		return
	}
	for k, va := range a.memo {
		vb, ok := b.memo[k]
		if !ok {
			t.Errorf("%s: memo key %q missing in reference", label, k)
			continue
		}
		if math.Float64bits(va) != math.Float64bits(vb) {
			t.Errorf("%s: memo value %v != %v for key %q", label, va, vb, k)
		}
	}
}

// neighborhoodScorer scores a batch of flips against one base subset.
type neighborhoodScorer func(base []schema.SourceID, flips []Move) []float64

// fullScorer is the oracle: EvalBatch over the applied subsets, which scores
// every candidate from a fresh context, its F1 from the whole-set
// Sharded.Score rather than a flip off a cached base. The whole-set path is
// pinned to the unsharded kernel inside package match.
func fullScorer(e *Evaluator) neighborhoodScorer {
	return func(base []schema.SourceID, flips []Move) []float64 {
		return e.EvalBatch(appliedSubsets(base, flips))
	}
}

// searchScorer scores through s.EvalMoves, the flip path: one Search walks
// every base, so its image moves from base to base as a solver's does.
func searchScorer(s *Search) neighborhoodScorer {
	return func(base []schema.SourceID, flips []Move) []float64 {
		return s.EvalMoves(s.NewSubset(base), flips)
	}
}

// appliedSubsets returns the subset each flip produces from base.
func appliedSubsets(base []schema.SourceID, flips []Move) [][]schema.SourceID {
	out := make([][]schema.SourceID, len(flips))
	for i, mv := range flips {
		out[i] = appendFlip(nil, base, mv)
	}
	return out
}

// driveNeighborhoods runs a local-search-like trajectory through score:
// score a neighborhood of flips against the current base, move the base to
// the best flip, occasionally restart to a random subset (forcing a delta
// rebuild). Every base contains the problem's required sources, as a
// solver's would, so the sharded match path can engage. All randomness
// comes from seed, so two scorers driven with the same seed see the
// identical call sequence as long as they return identical qualities.
func driveNeighborhoods(t *testing.T, score neighborhoodScorer, p *Problem, seed int64, rounds int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	all := p.Universe.IDs()
	req := p.Constraints.RequiredSources()
	randomBase := func() []schema.SourceID {
		n := 1 + r.Intn(p.MaxSources)
		perm := r.Perm(len(all))
		base := append([]schema.SourceID(nil), req...)
		for _, j := range perm {
			if len(base) >= n {
				break
			}
			if !slices.Contains(req, all[j]) {
				base = append(base, all[j])
			}
		}
		return SortIDs(base)
	}
	base := randomBase()
	for round := 0; round < rounds; round++ {
		var flips []Move
		flips = append(flips, NoMove) // re-scores the base itself
		for _, id := range all {
			in := slices.Contains(base, id)
			if !in && len(base) < p.MaxSources {
				flips = append(flips, Move{Add: id, Drop: -1})
			}
			if in && len(base) > 1 {
				flips = append(flips, Move{Add: -1, Drop: id})
			}
		}
		// Swaps, plus deliberately invalid flips that must fall back to the
		// full path (re-adding a member, dropping a non-member).
		for i := 0; i < 4; i++ {
			flips = append(flips, Move{
				Add:  all[r.Intn(len(all))],
				Drop: all[r.Intn(len(all))],
			})
		}
		qs := score(base, flips)
		if len(qs) != len(flips) {
			t.Fatalf("round %d: got %d results for %d flips", round, len(qs), len(flips))
		}
		bestQ, best := math.Inf(-1), NoMove
		for i, q := range qs {
			if q > bestQ {
				bestQ, best = q, flips[i]
			}
		}
		if r.Intn(5) == 0 {
			base = randomBase() // jump: exercises the rebuild path
		} else {
			base = appendFlip(nil, base, best) // drift: exercises the rebase path
		}
	}
}

// constrainedProblem is the books problem under a cross-shard constraint:
// source 3 is required, and a GA constraint pins its title (attr 0) to
// source 4's writer (attr 1). At θ = 0.45 those names sit in different base
// shards, so the evaluator's shard view fuses them into one overlay shard.
func constrainedProblem(t testing.TB) *Problem {
	return problem(t, 4, constraint.Set{
		Sources: ids(3),
		GAs: []schema.GA{schema.NewGA(
			schema.AttrRef{Source: 3, Attr: 0},
			schema.AttrRef{Source: 4, Attr: 1})},
	})
}

// TestEvalBatchDeltaDifferential is the white-box acceptance test of the
// delta path: one trajectory driven through Search.EvalMoves and through
// EvalBatch over the applied subsets must produce bit-identical memo
// contents and identical budget accounting — across worker counts, budget
// limits, seeds, a universe containing uncooperative and coop-mixed
// sources, and a constraint that fuses match shards.
func TestEvalBatchDeltaDifferential(t *testing.T) {
	for _, mk := range []struct {
		name  string
		build func(t testing.TB) *Problem
	}{
		{"books", func(t testing.TB) *Problem { return problem(t, 4, constraint.Set{}) }},
		{"mixed", func(t testing.TB) *Problem { return mixedProblem(t, 4) }},
		{"constrained", constrainedProblem},
	} {
		p := mk.build(t)
		for _, seed := range []int64{1, 2, 3} {
			for _, workers := range []int{1, 4} {
				for _, limit := range []int{0, 40} {
					delta := NewEvaluator(p, limit)
					delta.SetWorkers(workers)
					driveNeighborhoods(t, searchScorer(&Search{Eval: delta}), p, seed, 12)

					full := NewEvaluator(p, limit)
					full.SetWorkers(workers)
					driveNeighborhoods(t, fullScorer(full), p, seed, 12)

					label := fmt.Sprintf("%s/seed=%d/w%d/limit=%d", mk.name, seed, workers, limit)
					assertSameEvaluator(t, label, delta, full)
				}
			}
		}
	}
}

// TestFlipsOffBaseMissingRequired scores flips off bases that lack a source
// the constraints require. No cached match image exists for such a base, so
// the flips take F1 from the whole-set Sharded.Score, and adding the missing
// source gives a feasible set. One Search walks every base, so its image
// fails to move onto each invalid base and moves again from where it stayed.
// Each invalid base comes before the valid set its flips produce, so those
// flips miss the memo and are scored off the invalid base. Every single flip
// of every base must be bit-equal to EvalBatch over the applied subsets.
func TestFlipsOffBaseMissingRequired(t *testing.T) {
	p := constrainedProblem(t)
	steps := []struct {
		base  []schema.SourceID
		valid bool
	}{
		{ids(0, 3), false},
		{ids(0, 3, 4), true},
		{ids(1, 3), false},
		{ids(1, 2, 3, 4), true},
		{ids(2, 3), false},
		{ids(0, 1, 4), false},
		{ids(0, 1, 3, 4), true},
	}
	for _, workers := range []int{1, 4} {
		s, err := NewSearch(context.Background(), p, Options{Seed: 1, MaxEvals: -1, Parallel: workers})
		if err != nil {
			t.Fatal(err)
		}
		full := NewEvaluator(p, 0)
		full.SetWorkers(workers)
		for _, step := range steps {
			if got := p.Constraints.SatisfiedBy(step.base); got != step.valid {
				t.Fatalf("base %v: satisfies the constraints = %v, want %v", step.base, got, step.valid)
			}
			var flips []Move
			for _, in := range step.base {
				flips = append(flips, Move{Add: -1, Drop: in})
			}
			for _, id := range p.Universe.IDs() {
				if slices.Contains(step.base, id) {
					continue
				}
				flips = append(flips, Move{Add: id, Drop: -1})
				for _, in := range step.base {
					flips = append(flips, Move{Add: id, Drop: in})
				}
			}
			got := slices.Clone(s.EvalMoves(s.NewSubset(step.base), flips))
			want := full.EvalBatch(appliedSubsets(step.base, flips))
			for i, mv := range flips {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("w%d: base %v flip %+v: %v, whole-set %v", workers, step.base, mv, got[i], want[i])
				}
			}
		}
	}
}

// TestShardPathEngages guards the point of the sharded matcher: a flip
// batch's state must carry a match.ShardedBase imaging its base, so flips
// score through ScoreFlip rather than silently falling back to full
// reclustering. The constrained fixture must also keep its overlay fused, or
// the differential above stops covering the overlay path.
func TestShardPathEngages(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *Problem
	}{
		{"books", problem(t, 4, constraint.Set{})},
		{"constrained", constrainedProblem(t)},
	} {
		ev := NewEvaluator(tc.p, 0)
		s := &Search{Eval: ev}
		base := SortIDs(append(tc.p.Constraints.RequiredSources(), 0))
		s.EvalMoves(s.NewSubset(base), []Move{{Add: 1, Drop: -1}, {Add: 2, Drop: 0}})
		if ds := s.batch.delta; ds == nil || !ds.matchOK {
			t.Errorf("%s: flip batch carried no sharded match image", tc.name)
		}
		if tc.p.Constraints.Empty() {
			continue
		}
		fused := ev.sharded.NumShards()
		if plain := tc.p.Matcher.NewSharded(constraint.Set{}).NumShards(); fused >= plain {
			t.Errorf("%s: %d overlay shards, want fewer than the %d base shards", tc.name, fused, plain)
		}
	}
}

// TestDeltaImage walks one delta state through a sequence of bases: grow,
// swap, jump, repeat, shrink, and shrink to empty. After every rebase the
// union statistics of every flip (none, each drop of a member, each add of a
// non-member) must equal those read off a fresh image of the base. The
// rebase must count the signatures that image adds, and a repeated base must
// reuse the image and count none.
func TestDeltaImage(t *testing.T) {
	p := mixedProblem(t, 5)
	u := p.Universe
	rec := telemetry.New(nil)
	ev := NewEvaluator(p, 0)
	ev.Instrument(rec)
	ds := &deltaState{}
	for _, step := range []struct {
		name   string
		base   []schema.SourceID
		repeat bool
	}{
		{"initial", ids(0, 1, 2), false},
		{"grow", ids(0, 1, 2, 3), false},
		{"swap", ids(0, 1, 3, 5), false},
		{"jump", ids(2, 4, 6, 7), false},
		{"repeat", ids(2, 4, 6, 7), true},
		{"shrink", ids(2, 4, 6), false},
		{"empty", ids(), false},
	} {
		before := rec.Snapshot().Counter("pcsa.counting_merges")
		ev.rebase(ds, step.base)
		added := rec.Snapshot().Counter("pcsa.counting_merges") - before
		fresh := &deltaState{}
		want := int64(fresh.image(u, step.base))
		if step.repeat {
			want = 0
		}
		if added != want {
			t.Errorf("%s: rebase counted %d counting merges, want %d", step.name, added, want)
		}
		flips := []Move{NoMove}
		for _, id := range u.IDs() {
			if slices.Contains(step.base, id) {
				flips = append(flips, Move{Add: -1, Drop: id})
			} else {
				flips = append(flips, Move{Add: id, Drop: -1})
			}
		}
		for _, mv := range flips {
			got, _ := ds.flipStats(u, mv)
			if want, _ := fresh.flipStats(u, mv); !sameStats(got, want) {
				t.Errorf("%s: flip %+v reads %+v, fresh image %+v", step.name, mv, got, want)
			}
		}
	}
}

// TestValidFlipAndApplyFlip pins the flip helpers against Subset semantics.
func TestValidFlipAndApplyFlip(t *testing.T) {
	base := []schema.SourceID{1, 3, 5}
	cases := []struct {
		mv    Move
		valid bool
	}{
		{Move{Add: 2, Drop: -1}, true},
		{Move{Add: -1, Drop: 3}, true},
		{Move{Add: 4, Drop: 5}, true},
		{NoMove, true},
		{Move{Add: 3, Drop: -1}, false}, // re-add member
		{Move{Add: -1, Drop: 2}, false}, // drop non-member
		{Move{Add: 7, Drop: 7}, false},  // degenerate swap
		{Move{Add: 9, Drop: 4}, false},  // drop side absent
		{Move{Add: 3, Drop: 3}, false},  // drop a member and re-add it
		{Move{Add: 0, Drop: 1}, true},   // add before every member
		{Move{Add: 3, Drop: 1}, false},  // re-add member beside a drop
	}
	for _, tc := range cases {
		if got := validFlip(base, tc.mv); got != tc.valid {
			t.Errorf("validFlip(%v, %+v) = %v, want %v", base, tc.mv, got, tc.valid)
		}
		got := appendFlip(nil, base, tc.mv)
		// Reference: set semantics on a map.
		m := map[schema.SourceID]struct{}{}
		for _, id := range base {
			m[id] = struct{}{}
		}
		if tc.mv.Drop >= 0 {
			delete(m, tc.mv.Drop)
		}
		if tc.mv.Add >= 0 {
			m[tc.mv.Add] = struct{}{}
		}
		want := make([]schema.SourceID, 0, len(m))
		for id := range m {
			want = append(want, id)
		}
		SortIDs(want)
		if len(got) != len(want) {
			t.Fatalf("appendFlip(%v, %+v) = %v, want %v", base, tc.mv, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("appendFlip(%v, %+v) = %v, want %v", base, tc.mv, got, want)
			}
		}
	}
}
