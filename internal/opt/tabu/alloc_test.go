package tabu

import (
	"context"
	"runtime"
	"testing"

	"mube/internal/match"
	"mube/internal/opt"
	"mube/internal/pcsa"
	"mube/internal/qef"
	"mube/internal/schema"
	"mube/internal/synth"
	"mube/internal/testutil"
)

// sessionShape builds the problem a session-700 re-solve scores: the paper's
// 700-source universe (generator seed 1, 128 PCSA maps), the matcher at its
// default configuration, the four main QEFs plus the MTTF wsum QEF under
// uniform weights, and m = 20.
func sessionShape(t testing.TB) *opt.Problem {
	t.Helper()
	cfg := synth.Scaled(1)
	cfg.NumSources = 700
	cfg.Seed = 1
	cfg.Sig = pcsa.Config{NumMaps: 128}
	res, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := match.New(res.Universe, match.Config{})
	if err != nil {
		t.Fatal(err)
	}
	qefs := append(qef.MainQEFs(), qef.Characteristic{Char: "mttf", Agg: qef.WSum{}})
	q, err := qef.NewQuality(qefs, qef.Uniform(qefs))
	if err != nil {
		t.Fatal(err)
	}
	return &opt.Problem{Universe: res.Universe, Matcher: m, Quality: q, MaxSources: 20}
}

// TestResolveAllocBytes pins the bytes a warm tabu re-solve allocates at the
// session-700 shape, under session-700's budget (40 iterations, patience 12,
// one worker), each solve warm-started from the last with the next seed, as
// a session re-solves. Once earlier solves have sized the pooled memo, a
// re-solve allocates its Search with its neighborhood buffers, its delta
// state, its Solution and the solver's own bookkeeping, not its memo. It
// reads runtime.MemStats around 20 re-solves at GOMAXPROCS 1, the shape
// perfbench runs: a sync.Pool keeps what is put back on the putting P, so
// at more Ps a solve that lands on another P than the last one sizes a memo
// of its own once, and the figure varies with scheduling. Measured about
// 74 KB per re-solve. A memo regrown from empty every solve fails it: with
// a string key per subset a re-solve allocated about 147 KB. The budget
// leaves room for a collection to empty the pool once during the 20
// re-solves.
func TestResolveAllocBytes(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := sessionShape(t)
	var prev []schema.SourceID
	solve := func(seed int64) {
		sol, err := Solver{}.Solve(context.Background(), p, opt.Options{
			Seed: seed, MaxIters: 40, Patience: 12, MaxEvals: -1, Parallel: 1, Initial: prev,
		})
		if err != nil {
			t.Fatal(err)
		}
		prev = sol.IDs
	}
	for seed := int64(1); seed <= 4; seed++ {
		solve(seed)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := int64(0); i < runs; i++ {
		solve(5 + i)
	}
	runtime.ReadMemStats(&after)
	perSolve := (after.TotalAlloc - before.TotalAlloc) / runs
	if perSolve > 96<<10 {
		t.Errorf("warm re-solve: %d bytes, want ≤ 96 KiB", perSolve)
	}
}
