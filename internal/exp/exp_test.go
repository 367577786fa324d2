package exp

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"mube/internal/bamm"
	"mube/internal/pcsa"
	"mube/internal/testutil"
)

// micro returns a very small scale for unit tests (sub-second per
// experiment).
func micro() Scale {
	return Scale{
		Name:          "micro",
		DataFactor:    0.002,
		UniverseSizes: []int{60, 80},
		ChooseCounts:  []int{5, 10},
		BaseUniverse:  80,
		ChooseDefault: 8,
		MaxIters:      10,
		Patience:      5,
		Sig:           pcsa.Config{NumMaps: 64},
		Seed:          1,
		Repeats:       1,
	}
}

func TestScalePresets(t *testing.T) {
	full := Full()
	if full.BaseUniverse != 200 || full.ChooseDefault != 20 || !testutil.AlmostEqual(full.DataFactor, 1) {
		t.Errorf("Full() = %+v, want the paper's 200/20/1", full)
	}
	if len(full.UniverseSizes) != 7 || full.UniverseSizes[0] != 100 || full.UniverseSizes[6] != 700 {
		t.Errorf("Full universe sizes = %v", full.UniverseSizes)
	}
	if len(full.ChooseCounts) != 5 || full.ChooseCounts[0] != 10 || full.ChooseCounts[4] != 50 {
		t.Errorf("Full choose counts = %v", full.ChooseCounts)
	}
	quick := Quick()
	if quick.DataFactor >= full.DataFactor {
		t.Error("Quick() should shrink data")
	}
}

func TestUniverseCaching(t *testing.T) {
	sc := micro()
	a, err := sc.Universe(60)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Universe(60)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("universe not cached")
	}
	c, err := sc.Universe(80)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different sizes share a cache entry")
	}
	ma, err := sc.Matcher(a)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := sc.Matcher(a)
	if err != nil {
		t.Fatal(err)
	}
	if ma != mb {
		t.Error("matcher not cached")
	}
}

func TestConstraintConfigs(t *testing.T) {
	ccs := ConstraintConfigs()
	if len(ccs) != 5 {
		t.Fatalf("constraint configs = %d, want 5 (paper Figs 5–7)", len(ccs))
	}
	if ccs[0].Label != "none" || ccs[4].Label != "5C+2G" || ccs[4].NumGAs != 2 {
		t.Errorf("configs = %+v", ccs)
	}
}

func TestBuildConstraints(t *testing.T) {
	sc := micro()
	res, err := sc.Universe(80)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	for _, cc := range ConstraintConfigs() {
		cons, err := BuildConstraints(res, cc, 20, r)
		if err != nil {
			t.Fatalf("%s: %v", cc.Label, err)
		}
		if len(cons.Sources) != cc.NumSources || len(cons.GAs) != cc.NumGAs {
			t.Errorf("%s: got %d sources, %d GAs", cc.Label, len(cons.Sources), len(cons.GAs))
		}
		if err := cons.Validate(res.Universe); err != nil {
			t.Errorf("%s: invalid constraints: %v", cc.Label, err)
		}
		if req := cons.RequiredSources(); len(req) > 20 {
			t.Errorf("%s: %d required sources exceed m", cc.Label, len(req))
		}
		// Source constraints must be conformant sources.
		conformant := map[int]bool{}
		for _, id := range res.Conformant {
			conformant[int(id)] = true
		}
		for _, id := range cons.Sources {
			if !conformant[int(id)] {
				t.Errorf("%s: constraint source %d not conformant", cc.Label, id)
			}
		}
		// GA constraints must be concept-pure (accurate matchings).
		for _, g := range cons.GAs {
			concept := -1
			for _, ref := range g.Refs() {
				ci, ok := bamm.ConceptOf(res.Universe.AttrName(ref))
				if !ok {
					t.Errorf("%s: GA constraint has off-domain attribute", cc.Label)
					continue
				}
				if concept == -1 {
					concept = ci
				} else if ci != concept {
					t.Errorf("%s: GA constraint mixes concepts", cc.Label)
				}
			}
			if g.Size() < 2 || g.Size() > 5 {
				t.Errorf("%s: GA constraint size %d outside [2,5]", cc.Label, g.Size())
			}
		}
	}
}

func TestBuildConstraintsRespectsSmallM(t *testing.T) {
	sc := micro()
	res, err := sc.Universe(80)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	cons, err := BuildConstraints(res, ConstraintConfig{Label: "5C+2G", NumSources: 5, NumGAs: 2}, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	if req := cons.RequiredSources(); len(req) > 8 {
		t.Errorf("required sources %d exceed m=8", len(req))
	}
}

func TestFig5Shape(t *testing.T) {
	rows, err := Fig5(micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*5 {
		t.Fatalf("rows = %d, want sizes × configs = 10", len(rows))
	}
	for _, r := range rows {
		if r.Millis <= 0 || r.Quality <= 0 || r.Quality > 1 {
			t.Errorf("row %+v out of range", r)
		}
	}
	var buf bytes.Buffer
	if err := RenderFig5(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "universe") {
		t.Error("render missing header")
	}
}

func TestFig67Shape(t *testing.T) {
	sc := micro()
	rows, err := Fig67(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(sc.ChooseCounts)*5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Quality with more sources to choose should not collapse: compare the
	// unconstrained rows (paper Fig 7: quality increases with m).
	var qSmall, qLarge float64
	for _, r := range rows {
		if r.Config != "none" {
			continue
		}
		if r.Choose == sc.ChooseCounts[0] {
			qSmall = r.Quality
		}
		if r.Choose == sc.ChooseCounts[len(sc.ChooseCounts)-1] {
			qLarge = r.Quality
		}
	}
	if qLarge+0.05 < qSmall {
		t.Errorf("quality dropped sharply with m: %v → %v", qSmall, qLarge)
	}
	var buf bytes.Buffer
	if err := RenderFig67(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestFig8Shape(t *testing.T) {
	rows, err := Fig8(micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10 weight steps", len(rows))
	}
	// Cardinality at w=1.0 must be at least that at w=0.1 (paper Fig 8:
	// increasing the weight biases toward high-cardinality solutions).
	first, last := rows[0], rows[len(rows)-1]
	if last.SolutionCard < first.SolutionCard {
		t.Errorf("cardinality decreased across sweep: %d → %d", first.SolutionCard, last.SolutionCard)
	}
	var buf bytes.Buffer
	if err := RenderFig8(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestTable1Shape(t *testing.T) {
	sc := micro()
	rows, err := Table1(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(sc.ChooseCounts) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.FalseGAs != 0 {
			t.Errorf("m=%d: %d false GAs (paper: none)", r.Choose, r.FalseGAs)
		}
		if r.TrueGAs < 1 || r.TrueGAs > bamm.NumConcepts {
			t.Errorf("m=%d: TrueGAs = %d", r.Choose, r.TrueGAs)
		}
		if r.AttrsInTrueGAs < r.TrueGAs*2 {
			t.Errorf("m=%d: attrs %d below 2×TrueGAs", r.Choose, r.AttrsInTrueGAs)
		}
	}
	var buf bytes.Buffer
	if err := RenderTable1(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestPCSAExperiment(t *testing.T) {
	res, err := PCSA(micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.WorstErr > 0.25 {
		t.Errorf("worst error %.1f%% implausibly high for 128 maps", 100*res.WorstErr)
	}
	if res.MeanErr <= 0 {
		t.Error("mean error should be positive (estimates are approximate)")
	}
	var buf bytes.Buffer
	if err := RenderPCSA(&buf, res); err != nil {
		t.Fatal(err)
	}
}

func TestSensitivityExperiment(t *testing.T) {
	res, err := Sensitivity(micro())
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials < 5 {
		t.Errorf("trials = %d", res.Trials)
	}
	if res.MeanGAChanges < 0 || res.MeanSourceChanges < 0 {
		t.Errorf("negative means: %+v", res)
	}
	var buf bytes.Buffer
	if err := RenderSensitivity(&buf, res); err != nil {
		t.Fatal(err)
	}
}

// TestSensitivityDeterministic runs the §7.4 experiment five times at the
// quick scale with five trials: every run must report the same result.
// Drawing the perturbations in map order handed them to different QEFs from
// run to run, and eight quick-scale runs then gave seven different results
// (at the micro scale the solution is too small to move).
func TestSensitivityDeterministic(t *testing.T) {
	sc := Quick()
	sc.Repeats = 1
	first, err := Sensitivity(sc)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 5; run++ {
		got, err := Sensitivity(sc)
		if err != nil {
			t.Fatal(err)
		}
		//mube:vet-ignore floatcmp — the determinism contract is bit-identical
		if *got != *first {
			t.Fatalf("run %d: %+v, first run %+v", run, *got, *first)
		}
	}
}

func TestSolversExperiment(t *testing.T) {
	rows, err := Solvers(micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Solver != "tabu" {
		t.Errorf("first solver = %s", rows[0].Solver)
	}
	var tabuQ, randomQ float64
	for _, r := range rows {
		if r.Quality <= 0 || r.Quality > 1 {
			t.Errorf("%s: quality %v", r.Solver, r.Quality)
		}
		switch r.Solver {
		case "tabu":
			tabuQ = r.Quality
		case "random":
			randomQ = r.Quality
		}
	}
	if tabuQ+1e-9 < randomQ {
		t.Errorf("tabu (%.4f) below random (%.4f) at equal budget", tabuQ, randomQ)
	}
	var buf bytes.Buffer
	if err := RenderSolvers(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestConvergenceExperiment(t *testing.T) {
	rows, err := Convergence(micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no convergence rows")
	}
	seen := map[string]bool{}
	lastBest := map[string]float64{}
	for _, r := range rows {
		seen[r.Solver] = true
		if r.BestQ < 0 || r.BestQ > 1 {
			t.Errorf("%s iter %d: best_q %v out of [0,1]", r.Solver, r.Iter, r.BestQ)
		}
		// best_q is a running maximum: it can never decrease along a curve.
		if prev, ok := lastBest[r.Solver]; ok && r.BestQ+1e-12 < prev {
			t.Errorf("%s: best_q decreased %v -> %v", r.Solver, prev, r.BestQ)
		}
		lastBest[r.Solver] = r.BestQ
	}
	for _, want := range []string{"tabu", "sls", "anneal", "pso", "random"} {
		if !seen[want] {
			t.Errorf("no convergence curve for %s", want)
		}
	}
	var buf bytes.Buffer
	if err := RenderConvergence(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "best_q") {
		t.Errorf("render missing header:\n%s", buf.String())
	}
}

func TestCheckpoints(t *testing.T) {
	if got := checkpoints(0); got != nil {
		t.Errorf("checkpoints(0) = %v", got)
	}
	if got := checkpoints(1); len(got) != 1 || got[0] != 0 {
		t.Errorf("checkpoints(1) = %v", got)
	}
	got := checkpoints(10)
	want := []int{0, 1, 3, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("checkpoints(10) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("checkpoints(10) = %v, want %v", got, want)
		}
	}
}

func TestAblations(t *testing.T) {
	sc := micro()
	sim, err := AblationSimilarity(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(sim) != 6 {
		t.Errorf("similarity rows = %d", len(sim))
	}
	foundDefault := false
	for _, r := range sim {
		if r.Setting == "3gram-jaccard" {
			foundDefault = true
			if r.TrueGAs == 0 {
				t.Error("default measure found no true GAs")
			}
		}
	}
	if !foundDefault {
		t.Error("default measure missing from ablation")
	}

	link, err := AblationLinkage(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(link) != 2 || link[0].Setting != "max" {
		t.Errorf("linkage rows = %+v", link)
	}

	ten, err := AblationTenure(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(ten) != 5 {
		t.Errorf("tenure rows = %d", len(ten))
	}

	maps, err := AblationPCSAMaps(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(maps) != 4 {
		t.Fatalf("maps rows = %d", len(maps))
	}
	// More bitmaps → lower (or equal) mean error, comparing extremes.
	if maps[len(maps)-1].MeanErr > maps[0].MeanErr {
		t.Errorf("1024 maps err %.3f above 16 maps err %.3f", maps[len(maps)-1].MeanErr, maps[0].MeanErr)
	}

	var buf bytes.Buffer
	if err := RenderTenure(&buf, ten); err != nil {
		t.Fatal(err)
	}
	if err := RenderPCSAMaps(&buf, maps); err != nil {
		t.Fatal(err)
	}
}

func TestQueryCostExperiment(t *testing.T) {
	sc := micro()
	rows, err := QueryCost(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(sc.ChooseCounts) {
		t.Fatalf("rows = %d", len(rows))
	}
	// The §1 motivation: cost grows with the number of selected sources.
	first, last := rows[0], rows[len(rows)-1]
	if last.RowsScanned < first.RowsScanned {
		t.Errorf("rows scanned fell with more sources: %d → %d", first.RowsScanned, last.RowsScanned)
	}
	if last.TotalLatencyMS < first.TotalLatencyMS {
		t.Errorf("total latency fell with more sources: %.0f → %.0f", first.TotalLatencyMS, last.TotalLatencyMS)
	}
	for _, r := range rows {
		if r.SourcesQueried == 0 || r.RowsReturned == 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	var buf bytes.Buffer
	if err := RenderQueryCost(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rows_scanned") {
		t.Error("render missing header")
	}
}

func TestAblationPairwise(t *testing.T) {
	rows, err := AblationPairwise(micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0].Setting != "clustering" {
		t.Fatalf("rows = %+v", rows)
	}
	var clustering, starBest MatchRow
	for _, r := range rows {
		switch r.Setting {
		case "clustering":
			clustering = r
		case "star-best":
			starBest = r
		}
	}
	// The holistic clustering should identify at least as many concepts as
	// the best star (the star is structurally limited to hub concepts).
	if clustering.TrueGAs < starBest.TrueGAs {
		t.Errorf("clustering found %d concepts, star-best %d", clustering.TrueGAs, starBest.TrueGAs)
	}
}

func TestAblationHybrid(t *testing.T) {
	rows, err := AblationHybrid(micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || rows[0].Setting != "0.00" {
		t.Fatalf("rows = %+v", rows)
	}
	// Name-only matching recovers no renamed attributes; any positive data
	// weight should recover at least some.
	if rows[0].Renamed != 0 {
		t.Errorf("w=0 recovered %d renamed attributes", rows[0].Renamed)
	}
	recovered := false
	for _, r := range rows[1:] {
		if r.Renamed > 0 {
			recovered = true
		}
	}
	if !recovered {
		t.Error("no data weight recovered any renamed attribute")
	}
	// Against the origin ground truth, hybrid matching should cover at
	// least as many attributes as name-only.
	if rows[2].AttrsInTrueGAs < rows[0].AttrsInTrueGAs {
		t.Errorf("w=0.5 covers %d attrs < name-only %d", rows[2].AttrsInTrueGAs, rows[0].AttrsInTrueGAs)
	}
}

// TestFaultsExperiment checks the graceful-degradation sweep: the clean row
// is genuinely clean, every row's universe survived acquisition (dropped
// sources are the only losses), every solve stays feasible, and a second run
// reproduces the first bit-for-bit — fault injection must not smuggle
// nondeterminism into the harness.
func TestFaultsExperiment(t *testing.T) {
	sc := micro()
	rows, err := Faults(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(FaultRates) {
		t.Fatalf("rows = %d, want one per rate %v", len(rows), FaultRates)
	}
	clean := rows[0]
	if clean.Rate != 0 || clean.Plan != "none" || clean.Degraded != 0 || clean.Dropped != 0 {
		t.Errorf("clean row not clean: %+v", clean)
	}
	if clean.Universe != sc.BaseUniverse {
		t.Errorf("clean universe = %d, want %d", clean.Universe, sc.BaseUniverse)
	}
	for _, r := range rows {
		if !r.Feasible {
			t.Errorf("rate %.0f%%: infeasible solution", r.Rate*100)
		}
		if r.Universe != sc.BaseUniverse-r.Dropped {
			t.Errorf("rate %.0f%%: universe %d != base %d - dropped %d",
				r.Rate*100, r.Universe, sc.BaseUniverse, r.Dropped)
		}
		if r.Quality <= 0 || r.Quality > 1 {
			t.Errorf("rate %.0f%%: quality %v out of range", r.Rate*100, r.Quality)
		}
	}
	again, err := Faults(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		//mube:vet-ignore floatcmp — the determinism contract is bit-identical
		if rows[i] != again[i] {
			t.Errorf("rate %.0f%%: rerun differs: %+v vs %+v", rows[i].Rate*100, rows[i], again[i])
		}
	}
	var buf bytes.Buffer
	if err := RenderFaults(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fail_rate") {
		t.Error("render missing header")
	}
}
