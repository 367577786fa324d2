package main

import (
	"math"
	"strings"
	"testing"
)

func rep(metrics map[string]float64, benches ...result) report {
	return report{Metrics: metrics, Benchmarks: benches}
}

func TestCompareReports(t *testing.T) {
	prev := rep(
		map[string]float64{"evals_per_sec": 5000, "merge_ops_per_eval": 0.02, "best_q": 0.74},
		result{Name: "BenchmarkFig5", Iters: 1, Metrics: map[string]float64{"allocs/op": 8_000_000, "ns/op": 1e9}},
		result{Name: "BenchmarkFig5", Iters: 1, Metrics: map[string]float64{"allocs/op": 10_000_000, "ns/op": 1e9}},
		result{Name: "BenchmarkGone", Iters: 1, Metrics: map[string]float64{"ns/op": 5}},
	)
	next := rep(
		map[string]float64{"evals_per_sec": 4000, "merge_ops_per_eval": 0.02, "best_q": 0.60},
		result{Name: "BenchmarkFig5", Iters: 1, Metrics: map[string]float64{"allocs/op": 2_000_000, "ns/op": 1.05e9}},
		result{Name: "BenchmarkNew", Iters: 1, Metrics: map[string]float64{"ns/op": 7}},
	)
	rows, regressions := compareReports(prev, next)

	byKey := map[string]compareRow{}
	for _, r := range rows {
		byKey[r.Scope+"/"+r.Metric] = r
	}
	// Benchmarks only in one report are skipped.
	if _, ok := byKey["BenchmarkGone/ns/op"]; ok {
		t.Error("BenchmarkGone should not be compared")
	}
	if _, ok := byKey["BenchmarkNew/ns/op"]; ok {
		t.Error("BenchmarkNew should not be compared")
	}
	// Repeats average: (8M + 10M)/2 = 9M old allocs/op; a 2M new value is an
	// improvement, not a regression.
	al := byKey["BenchmarkFig5/allocs/op"]
	if math.Float64bits(al.Old) != math.Float64bits(9_000_000) || al.Regression {
		t.Errorf("allocs/op row = %+v, want old 9e6 and no regression", al)
	}
	// ns/op worsened 5% — inside tolerance.
	if byKey["BenchmarkFig5/ns/op"].Regression {
		t.Error("5% ns/op increase should be inside tolerance")
	}
	// evals_per_sec dropped 20% — higher-is-better regression.
	if !byKey["run/evals_per_sec"].Regression {
		t.Error("20% evals_per_sec drop should flag")
	}
	// best_q has no defined direction: large change, no flag.
	if byKey["run/best_q"].Regression {
		t.Error("best_q must never flag")
	}
	if regressions != 1 {
		t.Errorf("regressions = %d, want 1", regressions)
	}
}

func TestCompareChurnMetrics(t *testing.T) {
	// The churn experiment's run-level metrics are direction-aware: losing
	// recovered quality or spending a larger warm fraction both flag.
	prev := rep(map[string]float64{"q_recovery": 0.9, "warm_evals_frac": 0.3})
	next := rep(map[string]float64{"q_recovery": 0.6, "warm_evals_frac": 0.45})
	_, regressions := compareReports(prev, next)
	if regressions != 2 {
		t.Errorf("regressions = %d, want 2 (q_recovery drop and warm_evals_frac rise)", regressions)
	}
	// Improvements in both directions never flag.
	_, regressions = compareReports(next, prev)
	if regressions != 0 {
		t.Errorf("improvements flagged: %d", regressions)
	}
}

func TestComparePartitionMetrics(t *testing.T) {
	// The partition experiment and the universe ladder archive the matcher
	// and candidate-index builds and the 1M solve wall-clock; regressions in
	// any of them — or a lost group-worker speedup — must flag.
	prev := rep(map[string]float64{
		"pair_candidates":      641,
		"pair_candidates_frac": 0.14,
		"match_build_ns":       3.5e7,
		"shard_build_ns":       4.8e6,
		"solve_ms_1m":          9000,
		"partition_speedup":    2.0,
	})
	next := rep(map[string]float64{
		"pair_candidates":      1200, // candidate generation got leakier
		"pair_candidates_frac": 0.26,
		"match_build_ns":       7.5e8, // name table back to per-pair Sim calls
		"shard_build_ns":       9.6e6,
		"solve_ms_1m":          12000,
		"partition_speedup":    1.0, // pool no longer helps
	})
	_, regressions := compareReports(prev, next)
	if regressions != 6 {
		t.Errorf("regressions = %d, want 6 (all partition metrics are direction-aware)", regressions)
	}
	// The same deltas in the good direction never flag.
	_, regressions = compareReports(next, prev)
	if regressions != 0 {
		t.Errorf("improvements flagged: %d", regressions)
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	prev := rep(map[string]float64{"merge_ops_per_eval": 0})
	next := rep(map[string]float64{"merge_ops_per_eval": 0.5})
	rows, regressions := compareReports(prev, next)
	if len(rows) != 1 || !math.IsInf(rows[0].Delta(), 1) {
		t.Fatalf("rows = %+v, want one +Inf delta", rows)
	}
	if regressions != 1 {
		t.Errorf("zero→nonzero lower-is-better metric should flag, got %d", regressions)
	}
}

func TestRenderCompare(t *testing.T) {
	prev := rep(map[string]float64{"evals_per_sec": 5000})
	next := rep(map[string]float64{"evals_per_sec": 2000})
	rows, regressions := compareReports(prev, next)
	var sb strings.Builder
	if err := renderCompare(&sb, rows, regressions); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "-60.0%") {
		t.Errorf("table missing regression marker or delta:\n%s", out)
	}
}
