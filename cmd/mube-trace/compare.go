package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
)

// regressionTolerance is the fractional growth in a phase's cumulative or
// self time above which -compare flags it (and -strict fails the run).
const regressionTolerance = 0.10

// compareRow is one phase metric diffed between the old and new trace.
type compareRow struct {
	Scope      string // phase path
	Metric     string
	Old, New   float64
	Regression bool
}

// Delta returns the fractional change from old to new (+0.25 = new is 25%
// higher). Infinite when a zero baseline became non-zero.
func (r compareRow) Delta() float64 {
	if r.Old == 0 {
		if r.New == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (r.New - r.Old) / math.Abs(r.Old)
}

// regresses reports whether a metric's growth is a slowdown. Only phase time
// is: span and event counts follow the run's shape, and q_last its seed.
func regresses(metric string, delta float64) bool {
	return (metric == "cum_ns" || metric == "self_ns") && delta > regressionTolerance
}

// compareScopes diffs every scoped metric present in both maps. Rows sort by
// scope then metric; the count of flagged regressions is returned alongside.
func compareScopes(prev, next map[string]map[string]float64) ([]compareRow, int) {
	var rows []compareRow
	regressions := 0
	for scope, nm := range next {
		for metric, nv := range nm {
			ov, ok := prev[scope][metric]
			if !ok {
				continue
			}
			r := compareRow{Scope: scope, Metric: metric, Old: ov, New: nv}
			if r.Regression = regresses(metric, r.Delta()); r.Regression {
				regressions++
			}
			rows = append(rows, r)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Scope != rows[j].Scope {
			return rows[i].Scope < rows[j].Scope
		}
		return rows[i].Metric < rows[j].Metric
	})
	return rows, regressions
}

// renderCompare prints the diff as an aligned table, with a summary line
// when any metric regressed.
func renderCompare(w io.Writer, rows []compareRow, regressions int) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scope\tmetric\told\tnew\tdelta")
	for _, r := range rows {
		mark := ""
		if r.Regression {
			mark = "  REGRESSION"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%%s\n",
			r.Scope, r.Metric, r.Old, r.New, 100*r.Delta(), mark)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressions > 0 {
		fmt.Fprintf(w, "\n%d metric(s) regressed by more than %.0f%%\n",
			regressions, 100*regressionTolerance)
	}
	return nil
}
