package opt

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mube/internal/constraint"
	"mube/internal/qef"
	"mube/internal/schema"
	"mube/internal/telemetry"
)

// key is the key of the string-keyed map the memo table replaced: each id
// uvarint-encoded. The oracle below keys subsets by it.
func key(ids []schema.SourceID) string {
	buf := make([]byte, 0, len(ids)*binary.MaxVarintLen64)
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	return string(buf)
}

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// memoContents returns e's memo as a map from each entry's members (keyed by
// key) to its value. It fails t when two entries hold one subset, when an
// entry's hash is not its members' hash, or when an entry cannot be found by
// its members.
func memoContents(t *testing.T, e *Evaluator) map[string]float64 {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	m := e.memo
	out := make(map[string]float64, len(m.entries))
	for i := range m.entries {
		en := &m.entries[i]
		members := m.ids[en.off : en.off+en.n]
		k := key(members)
		if _, dup := out[k]; dup {
			t.Errorf("two memo entries hold %v", members)
		}
		if en.hash != hashIDs(members) {
			t.Errorf("entry for %v stored under hash %#x, its members hash to %#x", members, en.hash, hashIDs(members))
		}
		if v, ok := m.lookup(en.hash, members); !ok || !sameBits(v, en.v) {
			t.Errorf("entry for %v (%v) looked up as %v, %v", members, en.v, v, ok)
		}
		out[k] = en.v
	}
	return out
}

// oracle is the evaluator's bookkeeping as it stood before the memo table: a
// string-keyed map, and a per-batch pending map, resolved in candidate order
// with the same budget debits, refusals and cancellation reverts. It scores
// each job by ref's full path, which the flip path equals bit for bit, and
// counts what the evaluator's recorder counts.
type oracle struct {
	ref                            *Evaluator
	ctx                            context.Context
	memo                           map[string]float64
	limit, evals                   int
	hits, dups, unscored, computed int64
}

func newOracle(ctx context.Context, p *Problem, limit int) *oracle {
	return &oracle{
		ref:   NewEvaluator(context.Background(), p, Options{MaxEvals: -1, Parallel: 1}),
		ctx:   ctx,
		memo:  make(map[string]float64),
		limit: limit,
	}
}

// eval is Evaluator.Eval.
func (o *oracle) eval(ids []schema.SourceID) float64 {
	k := key(ids)
	if v, ok := o.memo[k]; ok {
		o.hits++
		return v
	}
	if o.limit > 0 && o.evals >= o.limit {
		o.unscored++
		return unscored
	}
	o.evals++
	v := o.ref.compute(ids, &scratch{})
	o.memo[k] = v
	o.computed++
	return v
}

// batch is Evaluator.EvalBatch, and Search.EvalMoves over the applied
// subsets.
func (o *oracle) batch(cands [][]schema.SourceID) []float64 {
	out := make([]float64, len(cands))
	pending := make(map[string]int)
	var jobs []int // the candidate each job scores
	var dups [][2]int
	for i, ids := range cands {
		k := key(ids)
		if v, ok := o.memo[k]; ok {
			out[i] = v
			o.hits++
			continue
		}
		if j, ok := pending[k]; ok {
			dups = append(dups, [2]int{i, j})
			o.dups++
			continue
		}
		if o.limit > 0 && o.evals >= o.limit {
			out[i] = unscored
			o.unscored++
			continue
		}
		o.evals++
		pending[k] = len(jobs)
		jobs = append(jobs, i)
	}
	if o.ctx.Err() != nil && len(jobs) > 0 {
		o.evals -= len(jobs)
		for _, i := range jobs {
			out[i] = unscored
		}
		for _, d := range dups {
			out[d[0]] = unscored
		}
		return out
	}
	for _, i := range jobs {
		out[i] = o.ref.compute(cands[i], &scratch{})
		o.memo[key(cands[i])] = out[i]
	}
	for _, d := range dups {
		out[d[0]] = out[jobs[d[1]]]
	}
	o.computed += int64(len(jobs))
	return out
}

// check compares the evaluator's values, Evals and counters with the
// oracle's after one step.
func (o *oracle) check(t *testing.T, label string, e *Evaluator, rec *telemetry.Recorder, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: candidate %d: %v, oracle %v", label, i, got[i], want[i])
		}
	}
	snap := rec.Snapshot()
	for _, c := range []struct {
		name string
		want int64
	}{
		{"eval.memo_hits", o.hits},
		{"eval.batch_dups", o.dups},
		{"eval.unscored", o.unscored},
		{"eval.computed", o.computed},
	} {
		if got := snap.Counter(c.name); got != c.want {
			t.Fatalf("%s: %s = %d, oracle %d", label, c.name, got, c.want)
		}
	}
	if e.Evals() != o.evals {
		t.Fatalf("%s: Evals() = %d, oracle %d", label, e.Evals(), o.evals)
	}
}

// reach returns the single flip that takes base to target, if one does.
func reach(base, target []schema.SourceID) (Move, bool) {
	mv := NoMove
	for _, id := range target {
		if !slices.Contains(base, id) {
			if mv.Add >= 0 {
				return NoMove, false
			}
			mv.Add = id
		}
	}
	for _, id := range base {
		if !slices.Contains(target, id) {
			if mv.Drop >= 0 {
				return NoMove, false
			}
			mv.Drop = id
		}
	}
	return mv, true
}

// TestMemoDifferential drives the memo table and the string-keyed map it
// replaced through one seeded sequence of Eval, EvalBatch and EvalMoves
// calls, at 1 and 4 workers: batches with in-batch duplicates and revisits,
// neighborhoods holding moves that are no single flip, and subsets that a
// later base reaches by another flip. One configuration runs out of budget
// mid-batch, another is canceled part-way, so its later batches abandon
// their jobs between planning and fan-out. Every value must match the
// oracle's bit for bit, and so must Evals, the hit, duplicate, refusal and
// compute counters, and the memo's contents at the end.
func TestMemoDifferential(t *testing.T) {
	for _, mk := range []struct {
		name  string
		build func(t testing.TB) *Problem
	}{
		{"books", func(t testing.TB) *Problem { return problem(t, 5, constraint.Set{}) }},
		{"constrained", constrainedProblem},
	} {
		p := mk.build(t)
		for _, seed := range []int64{1, 2, 3} {
			for _, workers := range []int{1, 4} {
				for _, tc := range []struct {
					name            string
					limit, cancelAt int
				}{
					{"unlimited", -1, -1},
					{"budget", 30, -1},
					{"canceled", -1, 12},
				} {
					label := fmt.Sprintf("%s/seed=%d/w%d/%s", mk.name, seed, workers, tc.name)
					driveMemo(t, label, p, seed, workers, tc.limit, tc.cancelAt)
				}
			}
		}
	}
}

// driveMemo runs one configuration of TestMemoDifferential.
func driveMemo(t *testing.T, label string, p *Problem, seed int64, workers, limit, cancelAt int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := telemetry.New(nil)
	s, err := NewSearch(ctx, p, Options{Seed: seed, MaxEvals: limit, Parallel: workers, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	o := newOracle(ctx, p, limit)
	r := rand.New(rand.NewSource(seed))
	all := p.Universe.IDs()
	randomSet := func() []schema.SourceID {
		set := slices.Clone(p.Constraints.RequiredSources())
		for _, j := range r.Perm(len(all))[:1+r.Intn(p.MaxSources)] {
			if len(set) < p.MaxSources && !slices.Contains(set, all[j]) {
				set = append(set, all[j])
			}
		}
		return SortIDs(set)
	}
	var seen [][]schema.SourceID
	revisit := func() []schema.SourceID {
		if len(seen) == 0 {
			return randomSet()
		}
		return seen[r.Intn(len(seen))]
	}
	cur := s.NewSubset(randomSet())
	var reached [][]schema.SourceID // subsets the last neighborhood's flips reached
	rereached := 0
	for step := 0; step < 40; step++ {
		if step == cancelAt {
			cancel()
		}
		stepLabel := fmt.Sprintf("%s/step %d", label, step)
		switch r.Intn(4) {
		case 0:
			ids := revisit()
			if r.Intn(2) == 0 {
				ids = randomSet()
			}
			got := s.Eval.Eval(ids)
			o.check(t, stepLabel+"/Eval", s.Eval, rec, []float64{got}, []float64{o.eval(ids)})
			seen = append(seen, ids)
		case 1:
			var cands [][]schema.SourceID
			for i := 0; i < 6; i++ {
				cands = append(cands, randomSet())
			}
			cands = append(cands, revisit(), revisit(), cands[0], cands[2], cands[0])
			r.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			got := slices.Clone(s.Eval.EvalBatch(cands))
			o.check(t, stepLabel+"/EvalBatch", s.Eval, rec, got, o.batch(cands))
			seen = append(seen, cands...)
		default:
			base := cur.IDs()
			moves := slices.Clone(s.Moves(cur, 10))
			// Subsets the previous base's flips reached, by a flip of this
			// base, so one subset is stored off two bases.
			for _, target := range reached {
				if mv, ok := reach(base, target); ok {
					moves = append(moves, mv)
					rereached++
				}
			}
			var out []schema.SourceID
			for _, id := range all {
				if !slices.Contains(base, id) {
					out = append(out, id)
				}
			}
			moves = append(moves, NoMove, moves[0],
				Move{Add: base[r.Intn(len(base))], Drop: -1}, // re-add a member
				Move{Add: -1, Drop: out[r.Intn(len(out))]},   // drop a non-member
				Move{Add: base[0], Drop: base[0]})
			r.Shuffle(len(moves), func(i, j int) { moves[i], moves[j] = moves[j], moves[i] })
			applied := appliedSubsets(base, moves)
			got := slices.Clone(s.EvalMoves(cur, moves))
			o.check(t, stepLabel+"/EvalMoves", s.Eval, rec, got, o.batch(applied))
			seen = append(seen, applied...)
			reached = reached[:0]
			var valid []Move
			for i, mv := range moves {
				if validFlip(base, mv) && mv != NoMove {
					valid = append(valid, mv)
					reached = append(reached, applied[i])
				}
			}
			if len(valid) > 0 {
				cur.Apply(valid[r.Intn(len(valid))])
			}
		}
	}
	if o.hits == 0 || o.dups == 0 || rereached == 0 {
		t.Errorf("%s: %d hits, %d duplicates and %d subsets reached off a second base; the drive must make each",
			label, o.hits, o.dups, rereached)
	}
	if limit > 0 && o.unscored == 0 {
		t.Errorf("%s: the budget never ran out", label)
	}
	if cancelAt >= 0 && rec.Snapshot().Counter("eval.budget_reverts") == 0 {
		t.Errorf("%s: no batch abandoned its jobs after the cancellation", label)
	}
	got := memoContents(t, s.Eval)
	if len(got) != len(o.memo) {
		t.Errorf("%s: memo holds %d subsets, oracle %d", label, len(got), len(o.memo))
	}
	for k, want := range o.memo {
		if v, ok := got[k]; !ok || !sameBits(v, want) {
			t.Errorf("%s: memo %q = %v, %v; oracle %v", label, k, v, ok, want)
		}
	}
}

// TestMemoSameHashKeepsBoth stores different subsets under one forced hash
// and finds each by its own members: a hash match alone never identifies a
// subset. Two hundred more subsets under the same hash grow the table past
// its first size.
func TestMemoSameHashKeepsBoth(t *testing.T) {
	const h = 0x5eed
	m := new(memo)
	stored := [][]schema.SourceID{
		ids(1, 2, 3), ids(4, 5), ids(1, 2, 3, 6), ids(0, 1, 3), ids(1, 3),
		ids(1, 2, 3, 4), ids(10, 15, 20, 30), ids(10, 15, 30), ids(),
	}
	for i, s := range stored {
		m.put(h, s, float64(i))
	}
	for i, s := range stored {
		if v, ok := m.lookup(h, s); !ok || !sameBits(v, float64(i)) {
			t.Errorf("%v: %v, %v; want its own value %d", s, v, ok, i)
		}
	}
	for _, miss := range [][]schema.SourceID{
		ids(1, 2), ids(0, 1, 2, 3), ids(1, 2, 6), ids(0, 3), ids(4, 5, 6),
		ids(10, 16, 20, 30), ids(10, 16, 30), ids(10, 15, 20), ids(10, 20, 30),
	} {
		if v, ok := m.lookup(h, miss); ok {
			t.Errorf("%v was never stored, found %v", miss, v)
		}
	}
	if got := len(m.entries); got != len(stored) {
		t.Errorf("%d entries for %d subsets", got, len(stored))
	}

	for i := 0; i < 200; i++ {
		m.put(h, ids(100+i), float64(1000+i))
	}
	for i := 0; i < 200; i++ {
		if v, ok := m.lookup(h, ids(100+i)); !ok || !sameBits(v, float64(1000+i)) {
			t.Fatalf("after growth, %v: %v, %v", ids(100+i), v, ok)
		}
	}
	for i, s := range stored {
		if v, ok := m.lookup(h, s); !ok || !sameBits(v, float64(i)) {
			t.Errorf("after growth, %v: %v, %v; want %d", s, v, ok, i)
		}
	}
}

// TestReleasedMemoCarriesNoValues pins the release contract: a search on one
// problem scores a neighborhood and is released, then a search on a problem
// over the same universe with other weights scores the same subsets. Its
// first batch must count no memo hit, whatever storage it was handed, and
// every value must be bit-equal to Score. A released Search panics on use.
func TestReleasedMemoCarriesNoValues(t *testing.T) {
	pA := problem(t, 5, constraint.Set{})
	pB := *pA
	q, err := qef.NewQuality(pA.Quality.QEFs, qef.Weights{
		qef.NameMatchQuality: 0.10,
		qef.NameCardinality:  0.50,
		qef.NameCoverage:     0.10,
		qef.NameRedundancy:   0.20,
		"mttf":               0.10,
	})
	if err != nil {
		t.Fatal(err)
	}
	pB.Quality = q
	base := ids(0, 2, 4, 6)
	var moves []Move
	for _, id := range pA.Universe.IDs() {
		if slices.Contains(base, id) {
			moves = append(moves, Move{Add: -1, Drop: id})
		} else {
			moves = append(moves, Move{Add: id, Drop: -1}, Move{Add: id, Drop: base[1]})
		}
	}

	sA, err := NewSearch(context.Background(), pA, Options{Seed: 1, MaxEvals: -1, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	qa := slices.Clone(sA.EvalMoves(sA.NewSubset(base), moves))
	sA.Eval.Eval(base)
	sA.Release()

	rec := telemetry.New(nil)
	sB, err := NewSearch(context.Background(), &pB, Options{Seed: 1, MaxEvals: -1, Parallel: 1, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	qb := slices.Clone(sB.EvalMoves(sB.NewSubset(base), moves))
	if hits := rec.Snapshot().Counter("eval.memo_hits"); hits != 0 {
		t.Errorf("first batch after a release counted %d memo hits, want 0", hits)
	}
	differ := 0
	for i, mv := range moves {
		want, err := Score(&pB, appendFlip(nil, base, mv))
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(qb[i], want) {
			t.Errorf("move %+v: %v, Score %v", mv, qb[i], want)
		}
		if !sameBits(qa[i], qb[i]) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("the two weightings score every subset alike; the test shows nothing")
	}
	sB.Release()

	defer func() {
		if recover() == nil {
			t.Error("EvalMoves on a released Search did not panic")
		}
	}()
	sB.EvalMoves(sB.NewSubset(base), moves)
}
