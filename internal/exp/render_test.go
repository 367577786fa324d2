package exp

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"mube/internal/opt"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/render.golden")

// TestRenderGolden feeds one fixed row of every row type through every
// renderer and compares the output with testdata/render.golden byte for
// byte, so no change to the harness can move a header, a column or a number
// format unnoticed. Sections are keyed by experiment name (and "universe"
// for the ladder table). Regenerate with `go test ./internal/exp -run
// TestRenderGolden -update` only in a change that means to alter a table.
func TestRenderGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range []struct {
		name   string
		render func(io.Writer) error
	}{
		{"fig5", func(w io.Writer) error {
			return RenderFig5(w, []SweepRow{{Size: 300, Choose: 20, Config: "5C+2G", Millis: 12.345, Quality: 0.61234, Evals: 1419}})
		}},
		{"fig67", func(w io.Writer) error {
			return RenderFig67(w, []SweepRow{{Size: 200, Choose: 30, Config: "3C", Millis: 7.25, Quality: 0.56785, Evals: 840}})
		}},
		{"fig8", func(w io.Writer) error {
			return RenderFig8(w, []Fig8Row{{CardWeight: 0.3, SolutionCard: 123456, CardFraction: 0.43215, Quality: 0.65435}})
		}},
		{"table1", func(w io.Writer) error {
			return RenderTable1(w, []Table1Row{{Choose: 30, TrueGAs: 12, AttrsInTrueGAs: 240, Missed: 2, FalseGAs: 1}})
		}},
		{"pcsa", func(w io.Writer) error {
			return RenderPCSA(w, &PCSAResult{
				Rows:    []PCSARow{{Sources: 5, Exact: 41234, Estimate: 40321.6, RelErr: 0.02214}},
				MeanErr: 0.03691, WorstErr: 0.06183,
			})
		}},
		{"sensitivity", func(w io.Writer) error {
			return RenderSensitivity(w, &SensitivityResult{
				Trials: 15, MaxGAChanges: 15, MeanGAChanges: 10.6, MaxSourceChanges: 8,
				MeanSourceChanges: 5.8667, MaxConceptChanges: 1, MeanConceptChanges: 1.0 / 3,
			})
		}},
		{"solvers", func(w io.Writer) error {
			return RenderSolvers(w, []SolverRow{{Solver: "anneal", Quality: 0.70125, Best: 0.71115, Worst: 0.69135, Millis: 45.67}})
		}},
		{"convergence", func(w io.Writer) error {
			return RenderConvergence(w, []ConvergenceRow{{Solver: "sls", Iter: 8, CurQ: 0.51234, BestQ: 0.55555, Evals: 240}})
		}},
		{"querycost", func(w io.Writer) error {
			return RenderQueryCost(w, []QueryCostRow{{
				Choose: 10, SourcesQueried: 30, RowsScanned: 12345, RowsReturned: 600,
				RowsMerged: 25, MaxLatencyMS: 120.4, TotalLatencyMS: 2345.6,
			}})
		}},
		{"ablation-sim", func(w io.Writer) error {
			return matchTable{setting: "measure", timed: true}.render(w, []MatchRow{{
				Setting: "3gram-jaccard", Quality: 0.81235, GAs: 14, TrueGAs: 13, FalseGAs: 1,
				AttrsInTrueGAs: 210, Millis: 3.25,
			}})
		}},
		{"ablation-linkage", func(w io.Writer) error {
			return matchTable{setting: "linkage"}.render(w, []MatchRow{{
				Setting: "avg", Quality: 0.7, GAs: 12, TrueGAs: 11, FalseGAs: 1, AttrsInTrueGAs: 190,
			}})
		}},
		{"ablation-tenure", func(w io.Writer) error {
			return RenderTenure(w, []TenureRow{{Tenure: 8, Quality: 0.70005, Millis: 33.35}})
		}},
		{"ablation-hybrid", func(w io.Writer) error {
			return matchTable{setting: "data_weight", renamed: true, timed: true}.render(w, []MatchRow{{
				Setting: "0.25", Quality: 0.66, GAs: 15, TrueGAs: 14, FalseGAs: 1,
				AttrsInTrueGAs: 220, Renamed: 9, Millis: 4.55,
			}})
		}},
		{"ablation-pairwise", func(w io.Writer) error {
			return matchTable{setting: "method", timed: true}.render(w, []MatchRow{{
				Setting: "star-best", Quality: 0.5, GAs: 9, TrueGAs: 8, FalseGAs: 0,
				AttrsInTrueGAs: 101, Millis: 0.75,
			}})
		}},
		{"ablation-pcsa", func(w io.Writer) error {
			return RenderPCSAMaps(w, []PCSAMapsRow{{NumMaps: 64, SizeBytes: 512, MeanErr: 0.04125, WorstErr: 0.09875}})
		}},
		{"faults", func(w io.Writer) error {
			return RenderFaults(w, []FaultsRow{{
				Rate: 0.3, Plan: "rate=0.3,seed=1", Universe: 190, Degraded: 21, Dropped: 10,
				Quality: 0.61, Feasible: true, Status: opt.StatusCompleted, Evals: 1200,
			}})
		}},
		{"churn", func(w io.Writer) error {
			return RenderChurn(w, []ChurnRow{{
				Rate: 0.1, Epochs: 10, Sources: 205, BaselineQ: 0.71, FinalQ: 0.69, QRecovery: 0.975,
				WarmEvals: 3000, ColdEvals: 9000, WarmFrac: 1.0 / 3, Died: 40, Arrived: 45,
			}})
		}},
		{"partition", func(w io.Writer) error {
			return RenderPartition(w, &PartitionResult{
				Rows: []PartitionRow{
					{Workers: 1, SolveMS: 20.4, Quality: 0.54225, Evals: 1419},
					{Workers: 4, SolveMS: 16.1, Quality: 0.54225, Evals: 1419},
				},
				Groups: 8, ShardMS: 2.04,
			})
		}},
		{"universe", func(w io.Writer) error {
			return RenderScaleBench(w, []*ScaleBenchRow{{
				Preset: "10k", Sources: 10000, Groups: 8, Solver: "partition+tabu",
				GenMS: 812.4, MatchMS: 45.25, ShardMS: 12.35, SolveMS: 950.6, GroupWorkers: 4,
				Evals: 12000, EvalsPerSec: 12623.6, SolveMallocs: 123456, SolveAllocMB: 45.65,
				SigMB: 4.9, Quality: 0.61235, Status: "completed",
			}})
		}},
	} {
		fmt.Fprintf(&buf, "== %s ==\n", c.name)
		if err := c.render(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	golden := filepath.Join("testdata", "render.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("renderers diverged from %s\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

// TestExperimentsRegistry checks the harness's experiment list: names are
// unique, and every entry runs at the micro scale and prints a table.
func TestExperimentsRegistry(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range Experiments() {
		if e.Name == "" || e.Title == "" || seen[e.Name] {
			t.Errorf("entry %q (title %q): empty or repeated name", e.Name, e.Title)
		}
		seen[e.Name] = true
		var buf bytes.Buffer
		if err := e.Run(micro(), &buf); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		} else if buf.Len() == 0 {
			t.Errorf("%s rendered nothing", e.Name)
		}
	}
}
