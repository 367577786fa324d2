// Package benchcmp is the shared direction-aware metric comparison used by
// mube-benchjson (-compare between archived bench reports) and mube-trace
// (-compare between trace profiles): scoped metric maps diff into rows, each
// row's fractional delta is judged against the metric's better-direction, and
// changes past the tolerance flag as regressions.
package benchcmp

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
)

// Directions classifies metrics by which way "better" points. Keys in
// neither map are informational: their deltas print but never flag, because
// "worse" is undefined for them (best_q depends on the seed, evals on the
// budget).
type Directions struct {
	HigherBetter map[string]bool
	LowerBetter  map[string]bool
}

// Default covers the metrics the bench and trace tooling archives.
var Default = Directions{
	HigherBetter: map[string]bool{
		"evals_per_sec":     true,
		"memo_hit_rate":     true,
		"delta_hit_rate":    true,
		"q_recovery":        true,
		"partition_speedup": true,
	},
	LowerBetter: map[string]bool{
		"ns/op":                    true,
		"B/op":                     true,
		"allocs/op":                true,
		"merge_ops_per_eval":       true,
		"counting_merges_per_eval": true,
		"warm_evals_frac":          true,
		"cum_ns":                   true,
		"self_ns":                  true,
		"pair_candidates":          true,
		"pair_candidates_frac":     true,
		"shard_build_ns":           true,
		"match_build_ns":           true,
		"solve_ms_1m":              true,
	},
}

// Tolerance is the fractional change in the worse direction above which a
// metric is flagged (and strict callers fail the run).
const Tolerance = 0.10

// Row is one metric diffed between the previous and current report.
type Row struct {
	Scope      string // benchmark name / phase path, or "run" for run-level metrics
	Metric     string
	Old, New   float64
	Regression bool
}

// Delta returns the fractional change from old to new (+0.25 = new is 25%
// higher). Infinite when a zero baseline became non-zero.
func (r Row) Delta() float64 {
	if r.Old == 0 {
		if r.New == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (r.New - r.Old) / math.Abs(r.Old)
}

// Compare diffs every scoped metric present in both maps and judges each
// against dirs. Rows sort by scope then metric, with the "run" scope last;
// the count of flagged regressions is returned alongside.
func Compare(prev, next map[string]map[string]float64, dirs Directions) ([]Row, int) {
	var rows []Row
	for scope, nm := range next {
		om, ok := prev[scope]
		if !ok {
			continue
		}
		for metric, nv := range nm {
			ov, ok := om[metric]
			if !ok {
				continue
			}
			rows = append(rows, Row{Scope: scope, Metric: metric, Old: ov, New: nv})
		}
	}
	regressions := 0
	for i := range rows {
		d := rows[i].Delta()
		switch {
		case dirs.HigherBetter[rows[i].Metric] && d < -Tolerance:
			rows[i].Regression = true
		case dirs.LowerBetter[rows[i].Metric] && d > Tolerance:
			rows[i].Regression = true
		}
		if rows[i].Regression {
			regressions++
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Scope != rows[j].Scope {
			// "run" rows last; other scopes alphabetical.
			if rows[i].Scope == "run" || rows[j].Scope == "run" {
				return rows[j].Scope == "run"
			}
			return rows[i].Scope < rows[j].Scope
		}
		return rows[i].Metric < rows[j].Metric
	})
	return rows, regressions
}

// Render prints the diff as an aligned table, with a summary line when any
// metric regressed.
func Render(w io.Writer, rows []Row, regressions int) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scope\tmetric\told\tnew\tdelta")
	for _, r := range rows {
		flag := ""
		if r.Regression {
			flag = "  REGRESSION"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%%s\n",
			r.Scope, r.Metric, r.Old, r.New, 100*r.Delta(), flag)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressions > 0 {
		fmt.Fprintf(w, "\n%d metric(s) regressed by more than %.0f%%\n",
			regressions, 100*Tolerance)
	}
	return nil
}
