// Benchmarks regenerating the paper's evaluation artifacts (one
// sub-benchmark of BenchmarkExperiments per entry of exp.Experiments(), at a
// reduced "bench" scale so `go test -bench=.` stays in the minutes range)
// plus micro-benchmarks of the hot paths: schema matching, PCSA synopses,
// and objective evaluation.
//
// The full-scale console harness is `go run ./cmd/mube-bench -scale full`.
package mube_test

import (
	"context"
	"io"
	"testing"

	"mube/internal/constraint"
	"mube/internal/exp"
	"mube/internal/match"
	"mube/internal/minhash"
	"mube/internal/opt"
	"mube/internal/pcsa"
	"mube/internal/schema"
	"mube/internal/synth"
)

// benchScale is a small but non-trivial configuration: 1% data, universes to
// 200 sources.
func benchScale() exp.Scale {
	return exp.Scale{
		Name:          "bench",
		DataFactor:    0.01,
		UniverseSizes: []int{100, 200},
		ChooseCounts:  []int{10, 20},
		BaseUniverse:  200,
		ChooseDefault: 20,
		MaxIters:      30,
		Patience:      10,
		Sig:           pcsa.Config{NumMaps: 128},
		Seed:          1,
		Repeats:       1,
	}
}

// BenchmarkExperiments regenerates and renders every experiment of
// exp.Experiments() at the bench scale, one sub-benchmark per entry
// (BenchmarkExperiments/fig5, …/ablation-hybrid, …). Each entry runs once
// before the timer starts, so every sample measures warm runs: the cached
// universes and matchers are built by then.
func BenchmarkExperiments(b *testing.B) {
	sc := benchScale()
	for _, e := range exp.Experiments() {
		b.Run(e.Name, func(b *testing.B) {
			if err := e.Run(sc, io.Discard); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Run(sc, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig67Sequential is Figures 6–7 with the evaluator pinned to one
// worker: the baseline the parallel speedup is measured against.
func BenchmarkFig67Sequential(b *testing.B) {
	sc := benchScale()
	sc.Parallel = 1
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig67(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig67Parallel is Figures 6–7 with the GOMAXPROCS worker pool
// (identical results; see the parallel-speedup section of EXPERIMENTS.md).
func BenchmarkFig67Parallel(b *testing.B) {
	sc := benchScale()
	sc.Parallel = 0
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig67(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// benchUniverse returns the cached 200-source bench universe.
func benchUniverse(b *testing.B) *synth.Result {
	b.Helper()
	res, err := benchScale().Universe(200)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkMatch20 measures one Match(S) call over 20 sources — the
// dominant cost of an objective evaluation.
func BenchmarkMatch20(b *testing.B) {
	benchMatchN(b, 20)
}

// BenchmarkMatch50 measures Match(S) over 50 sources.
func BenchmarkMatch50(b *testing.B) {
	benchMatchN(b, 50)
}

func benchMatchN(b *testing.B, n int) {
	res := benchUniverse(b)
	m, err := match.New(res.Universe, match.Config{})
	if err != nil {
		b.Fatal(err)
	}
	ids := res.Universe.IDs()[:n]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Match(ids, constraint.Set{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatcherBuild measures building the interned-name similarity table
// for a 200-source universe (done once per universe).
func BenchmarkMatcherBuild(b *testing.B) {
	res := benchUniverse(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := match.New(res.Universe, match.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatcherBuildHybrid measures building the per-attribute hybrid
// similarity table (name + MinHash value sketches) for a 200-source
// universe.
func BenchmarkMatcherBuildHybrid(b *testing.B) {
	cfg := synth.Scaled(0.01)
	cfg.NumSources = 200
	cfg.Sig = pcsa.Config{NumMaps: 128}
	cfg.AttrSignatures = true
	res, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := match.New(res.Universe, match.Config{DataWeight: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinHashAdd measures value-sketch insertion (the per-tuple cost of
// cooperating with data-based matching).
func BenchmarkMinHashAdd(b *testing.B) {
	sig := minhash.MustNew(minhash.DefaultK, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig.AddUint64(uint64(i))
	}
}

// BenchmarkObjectiveEval measures one full Q(S) evaluation (match + card +
// coverage + redundancy + mttf) for a 20-source subset.
func BenchmarkObjectiveEval(b *testing.B) {
	sc := benchScale()
	res := benchUniverse(b)
	p, err := sc.Problem(res, 20, constraint.Set{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	ids := res.Universe.IDs()[:20]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := opt.NewEvaluator(p, 0) // fresh evaluator: no memo hits
		if q := e.Eval(ids); q <= 0 {
			b.Fatal("zero quality")
		}
	}
}

// benchEvalBatch measures scoring one 64-candidate neighborhood of 20-source
// subsets through the batch API on a fresh evaluator (no memo hits).
func benchEvalBatch(b *testing.B, workers int) {
	sc := benchScale()
	res := benchUniverse(b)
	p, err := sc.Problem(res, 20, constraint.Set{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	all := res.Universe.IDs()
	cands := make([][]schema.SourceID, 64)
	for i := range cands {
		ids := make([]schema.SourceID, 20)
		copy(ids, all[i:i+20])
		cands[i] = opt.SortIDs(ids)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := opt.NewEvaluator(p, 0)
		e.SetWorkers(workers)
		if qs := e.EvalBatch(cands); qs[0] <= 0 {
			b.Fatal("zero quality")
		}
	}
}

// BenchmarkEvalBatch64Sequential scores the neighborhood on one worker.
func BenchmarkEvalBatch64Sequential(b *testing.B) { benchEvalBatch(b, 1) }

// BenchmarkEvalBatch64Parallel scores it on the GOMAXPROCS worker pool.
func BenchmarkEvalBatch64Parallel(b *testing.B) { benchEvalBatch(b, 0) }

// BenchmarkTabuSolve measures one full tabu run on the standard problem.
func BenchmarkTabuSolve(b *testing.B) {
	sc := benchScale()
	res := benchUniverse(b)
	p, err := sc.Problem(res, 20, constraint.Set{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	solver := sc.Solver(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Solve(context.Background(), p, sc.Options(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFlips returns a 64-flip neighborhood (adds, drops, swaps) around a
// 20-source base — the workload EvalMoves hands the evaluator every
// local-search iteration.
func benchFlips(all []schema.SourceID) (base []schema.SourceID, flips []opt.Move) {
	base = make([]schema.SourceID, 20)
	copy(base, all[:20])
	base = opt.SortIDs(base)
	for i := 0; i < 64; i++ {
		switch i % 3 {
		case 0:
			flips = append(flips, opt.Move{Add: all[20+i%40], Drop: -1})
		case 1:
			flips = append(flips, opt.Move{Add: -1, Drop: base[i%20]})
		default:
			flips = append(flips, opt.Move{Add: all[20+i%40], Drop: base[i%20]})
		}
	}
	return base, flips
}

// BenchmarkDeltaNeighborhood scores the 64-flip neighborhood incrementally
// through Search.EvalMoves on a fresh Search (no memo hits): one image of
// the base per batch, O(1 source) per flip. Building the Search is not
// timed.
func BenchmarkDeltaNeighborhood(b *testing.B) {
	p, base, flips := benchNeighborhood(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := opt.NewSearch(context.Background(), p, opt.Options{MaxEvals: -1, Parallel: 1})
		if err != nil {
			b.Fatal(err)
		}
		cur := s.NewSubset(base)
		b.StartTimer()
		if qs := s.EvalMoves(cur, flips); len(qs) != len(flips) {
			b.Fatal("short result")
		}
	}
}

// BenchmarkDeltaNeighborhoodFull scores the same 64 flipped subsets through
// EvalBatch on a fresh evaluator: every candidate takes the full O(|S|)
// re-merge — the baseline the delta path is measured against. The flipped
// subsets are built inside the timed loop, as EvalMoves builds them.
func BenchmarkDeltaNeighborhoodFull(b *testing.B) {
	p, base, flips := benchNeighborhood(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands := make([][]schema.SourceID, len(flips))
		for j, mv := range flips {
			add := mv.Add
			ids := make([]schema.SourceID, 0, len(base)+1)
			for _, id := range base {
				if add >= 0 && add < id {
					ids, add = append(ids, add), -1
				}
				if id != mv.Drop {
					ids = append(ids, id)
				}
			}
			if add >= 0 {
				ids = append(ids, add)
			}
			cands[j] = ids
		}
		e := opt.NewEvaluator(p, 0)
		e.SetWorkers(1)
		if qs := e.EvalBatch(cands); len(qs) != len(flips) {
			b.Fatal("short result")
		}
	}
}

// benchNeighborhood builds the delta benchmarks' problem and 64-flip
// neighborhood.
func benchNeighborhood(b *testing.B) (*opt.Problem, []schema.SourceID, []opt.Move) {
	sc := benchScale()
	res := benchUniverse(b)
	p, err := sc.Problem(res, 20, constraint.Set{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	base, flips := benchFlips(res.Universe.IDs())
	return p, base, flips
}

// benchSignatures returns the bench universe's signatures in id order and a
// flip union of their configuration.
func benchSignatures(b *testing.B) ([]*pcsa.Signature, *pcsa.FlipUnion) {
	res := benchUniverse(b)
	var sigs []*pcsa.Signature
	for _, id := range res.Universe.IDs() {
		if sig := res.Universe.Source(id).Signature; sig != nil {
			sigs = append(sigs, sig)
		}
	}
	if len(sigs) <= 20 {
		b.Fatal("bench universe has too few signatures")
	}
	f, err := pcsa.NewFlipUnion(res.Universe.SignatureConfig())
	if err != nil {
		b.Fatal(err)
	}
	return sigs, f
}

// BenchmarkDeltaImage measures what a delta batch pays for its flip union:
// Reset plus 20 Adds of 128-map signatures, the image of a 20-source base.
func BenchmarkDeltaImage(b *testing.B) {
	sigs, f := benchSignatures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Reset()
		for _, sig := range sigs[:20] {
			if err := f.Add(sig); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDeltaEstimate measures the fused flip-estimate kernel: estimate
// of (union − drop + add) as a pure read over the flip union's two words
// per map.
func BenchmarkDeltaEstimate(b *testing.B) {
	sigs, f := benchSignatures(b)
	for _, sig := range sigs[:20] {
		if err := f.Add(sig); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		add := sigs[20+i%(len(sigs)-20)]
		drop := sigs[i%20]
		if _, err := f.EstimateDelta(add, drop); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaSignatureMerge measures the word-level OR kernel: one
// 128-map MergeFrom, the unit of work the delta path eliminates per source.
func BenchmarkDeltaSignatureMerge(b *testing.B) {
	res := benchUniverse(b)
	all := res.Universe.IDs()
	var src *pcsa.Signature
	for _, id := range all {
		if sig := res.Universe.Source(id).Signature; sig != nil {
			src = sig
			break
		}
	}
	dst := src.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.MergeFrom(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPCSAAdd measures signature insertion throughput.
func BenchmarkPCSAAdd(b *testing.B) {
	sig := pcsa.MustNew(pcsa.DefaultConfig)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig.AddUint64(uint64(i))
	}
}

// BenchmarkPCSAUnion measures OR-merging 20 signatures and estimating the
// union — the Coverage QEF's inner loop.
func BenchmarkPCSAUnion(b *testing.B) {
	res := benchUniverse(b)
	var sigs []*pcsa.Signature
	for _, s := range res.Universe.Sources()[:20] {
		if s.Signature != nil {
			sigs = append(sigs, s.Signature)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		un, err := pcsa.Union(sigs...)
		if err != nil {
			b.Fatal(err)
		}
		if un.Estimate() <= 0 {
			b.Fatal("empty union")
		}
	}
}

// BenchmarkGenerateUniverse measures synthetic-universe generation at 1%
// data scale, 100 sources.
func BenchmarkGenerateUniverse(b *testing.B) {
	cfg := synth.Scaled(0.01)
	cfg.NumSources = 100
	cfg.Sig = pcsa.Config{NumMaps: 128}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := synth.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchemaSubsumes measures the subsumption check used by constraint
// verification.
func BenchmarkSchemaSubsumes(b *testing.B) {
	var gas []schema.GA
	for s := 0; s < 20; s++ {
		gas = append(gas, schema.NewGA(
			schema.AttrRef{Source: schema.SourceID(s), Attr: 0},
			schema.AttrRef{Source: schema.SourceID(s + 20), Attr: 1},
			schema.AttrRef{Source: schema.SourceID(s + 40), Attr: 2},
		))
	}
	m := schema.NewMediated(gas...)
	sub := schema.NewMediated(gas[:10]...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.Subsumes(sub) {
			b.Fatal("subsumption broken")
		}
	}
}
