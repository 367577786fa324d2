package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestCompareScopesFlags pins the comparator's direction logic: only growth
// in phase time past the tolerance flags, counts and Q never do, a phase in
// one trace only yields no row, and a zero baseline that became non-zero
// reads as +Inf.
func TestCompareScopesFlags(t *testing.T) {
	cases := []struct {
		metric   string
		old, new float64
		wantFlag bool
	}{
		{"cum_ns", 1000, 1050, false},
		{"cum_ns", 1000, 1200, true},
		{"cum_ns", 1000, 500, false},
		{"self_ns", 1000, 1050, false},
		{"self_ns", 1000, 1200, true},
		{"self_ns", 0, 7, true},
		{"spans", 10, 100, false},
		{"events", 10, 100, false},
		{"q_last", 0.8, 0.4, false},
		{"q_last", 0.4, 0.8, false},
	}
	for _, c := range cases {
		prev := map[string]map[string]float64{
			"phase":     {c.metric: c.old},
			"only-prev": {c.metric: c.old},
		}
		next := map[string]map[string]float64{
			"phase":     {c.metric: c.new},
			"only-next": {c.metric: c.new},
		}
		rows, regressions := compareScopes(prev, next)
		if len(rows) != 1 || rows[0].Scope != "phase" {
			t.Fatalf("%s %v→%v: rows %+v, want one row for the shared phase", c.metric, c.old, c.new, rows)
		}
		wantRegressions := 0
		if c.wantFlag {
			wantRegressions = 1
		}
		if rows[0].Regression != c.wantFlag || regressions != wantRegressions {
			t.Errorf("%s %v→%v: flagged=%v regressions=%d, want flagged=%v",
				c.metric, c.old, c.new, rows[0].Regression, regressions, c.wantFlag)
		}
	}

	rows, regressions := compareScopes(
		map[string]map[string]float64{"phase": {"self_ns": 0}},
		map[string]map[string]float64{"phase": {"self_ns": 7}})
	if d := rows[0].Delta(); !math.IsInf(d, 1) {
		t.Errorf("zero baseline delta = %v, want +Inf", d)
	}
	var buf bytes.Buffer
	if err := renderCompare(&buf, rows, regressions); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "+Inf%  REGRESSION") || !strings.Contains(out, "1 metric(s) regressed by more than 10%") {
		t.Errorf("zero baseline rendering:\n%s", out)
	}
}
