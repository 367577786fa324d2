package exp

import (
	"context"
	"fmt"
	"io"
	"time"

	"mube/internal/match"
	"mube/internal/mediator"
	"mube/internal/opt"
	"mube/internal/pcsa"
	"mube/internal/synth"
)

// QueryCostRow is one point of the query-cost experiment: the execution cost
// of a fixed query workload over solutions of increasing size.
type QueryCostRow struct {
	Choose         int
	SourcesQueried int
	RowsScanned    int
	RowsReturned   int
	RowsMerged     int
	MaxLatencyMS   float64
	TotalLatencyMS float64
}

// QueryCost quantifies the paper's §1 motivation — "the more sources we
// have, the higher these [networking and processing] costs become" — by
// actually executing a fixed query workload through the mediator over
// solutions with growing m. It always runs at ≤1% data scale so row tables
// fit comfortably in memory.
func QueryCost(sc Scale) ([]QueryCostRow, error) {
	cfg := synth.Scaled(min(sc.DataFactor, 0.01))
	cfg.NumSources = sc.BaseUniverse
	cfg.Seed = sc.Seed
	cfg.Sig = pcsa.Config{NumMaps: 128}
	cfg.KeepTuples = true
	res, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	quality, err := PaperQuality()
	if err != nil {
		return nil, err
	}
	matcher, err := match.New(res.Universe, match.Config{Theta: match.DefaultTheta})
	if err != nil {
		return nil, err
	}

	var rows []QueryCostRow
	for _, m := range sc.ChooseCounts {
		p := &opt.Problem{
			Universe:   res.Universe,
			Matcher:    matcher,
			Quality:    quality,
			MaxSources: m,
		}
		sol, err := sc.Solver(sc.BaseUniverse).Solve(context.Background(), p, sc.Options(sc.Seed))
		if err != nil {
			return nil, err
		}
		if !sol.MatchOK {
			return nil, fmt.Errorf("exp: no mediated schema for m=%d", m)
		}
		tables, err := synth.Materialize(res, sol.IDs)
		if err != nil {
			return nil, err
		}
		sys, err := mediator.New(res.Universe, sol.Schema, sol.IDs, tables)
		if err != nil {
			return nil, err
		}

		row := QueryCostRow{Choose: m}
		for _, q := range workload(sol.Schema.Len()) {
			out, err := sys.Execute(q)
			if err != nil {
				return nil, err
			}
			row.SourcesQueried += out.Stats.SourcesQueried
			row.RowsScanned += out.Stats.RowsScanned
			row.RowsReturned += len(out.Rows)
			row.RowsMerged += out.Stats.RowsMerged
			row.MaxLatencyMS += float64(out.Stats.MaxLatency) / float64(time.Millisecond)
			row.TotalLatencyMS += float64(out.Stats.TotalLatency) / float64(time.Millisecond)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// workload builds a small fixed query mix over the first GAs of the solution
// schema: a substring scan (touches every row of every answering source) and
// a bounded full read per GA.
func workload(numGAs int) []mediator.Query {
	n := numGAs
	if n > 3 {
		n = 3
	}
	var qs []mediator.Query
	for gi := 0; gi < n; gi++ {
		qs = append(qs,
			mediator.Query{Select: []int{gi}, Where: []mediator.Predicate{{GA: gi, Op: mediator.OpContains, Value: "-0"}}},
			mediator.Query{Select: []int{gi}, Limit: 100},
		)
	}
	return qs
}

// RenderQueryCost prints the query-cost experiment.
func RenderQueryCost(w io.Writer, rows []QueryCostRow) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "choose\tsources_queried\trows_scanned\trows_returned\trows_merged\tmax_latency_ms\ttotal_latency_ms")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%.0f\t%.0f\n",
			r.Choose, r.SourcesQueried, r.RowsScanned, r.RowsReturned, r.RowsMerged, r.MaxLatencyMS, r.TotalLatencyMS)
	}
	return tw.Flush()
}
