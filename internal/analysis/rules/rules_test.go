package rules_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mube/internal/analysis"
	"mube/internal/analysis/analysistest"
	"mube/internal/analysis/rules"
)

func fixture(elem ...string) string {
	return filepath.Join(append([]string{"testdata", "src"}, elem...)...)
}

var wantComment = regexp.MustCompile(`//\s*want\s+"(?:[^"\\]|\\.)*"`)

// fixtureNoWants copies a fixture with its want comments stripped, so a
// violating fixture can double as an out-of-scope case that must be silent.
// The copy lives under testdata (not t.TempDir) because fixture loading
// resolves imports relative to the fixture directory, which must stay inside
// the module.
func fixtureNoWants(t *testing.T, elem ...string) string {
	t.Helper()
	src := fixture(elem...)
	dst, err := os.MkdirTemp("testdata", "nowants")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.RemoveAll(dst) })
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		data = wantComment.ReplaceAll(data, []byte{})
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestDeterminismRestricted(t *testing.T) {
	analysistest.Run(t, fixture("determinism", "core"), "mube/internal/opt/fixture", rules.Determinism)
}

func TestDeterminismPCSA(t *testing.T) {
	// The sketch layer (flip unions, fused estimate kernels) is in scope:
	// ambient randomness or clock reads there would break the bit-identity
	// contract of the incremental evaluation paths.
	analysistest.Run(t, fixture("determinism", "pcsa"), "mube/internal/pcsa/fixture", rules.Determinism)
}

func TestDeterminismAllowlisted(t *testing.T) {
	// Same subtree as the restricted case, but on the explicit allowlist.
	analysistest.Run(t, fixture("determinism", "allowed"), "mube/internal/opt/opttest", rules.Determinism)
}

func TestDeterminismOutOfScope(t *testing.T) {
	// The exp harness owns its timing; the restricted fixture produces no
	// diagnostics when loaded under an out-of-scope path. Reusing the
	// "allowed" fixture keeps the want-comment sets consistent.
	analysistest.Run(t, fixture("determinism", "allowed"), "mube/internal/exp", rules.Determinism)
}

func TestFloatCmp(t *testing.T) {
	analysistest.Run(t, fixture("floatcmp"), "mube/internal/fixture/floatcmp", rules.FloatCmp)
}

func TestErrDrop(t *testing.T) {
	analysistest.Run(t, fixture("errdrop"), "mube/internal/fixture/errdrop", rules.ErrDrop)
}

func TestSeedFlow(t *testing.T) {
	analysistest.Run(t, fixture("seedflow"), "mube/internal/fixture/seedflow", rules.SeedFlow)
}

func TestSeedFlowAllowlisted(t *testing.T) {
	analysistest.Run(t, fixture("seedflow", "allowed"), "mube/internal/synth/fixture", rules.SeedFlow)
}

func TestTelemetryRestricted(t *testing.T) {
	analysistest.Run(t, fixture("telemetry", "core"), "mube/internal/qef/fixture", rules.Telemetry)
}

func TestTelemetryAllowlisted(t *testing.T) {
	analysistest.Run(t, fixture("telemetry", "allowed"), "mube/internal/testutil", rules.Telemetry)
}

func TestTelemetryOutOfScope(t *testing.T) {
	// cmd/ binaries own stdout; the allowed fixture produces no diagnostics
	// when loaded under a cmd path.
	analysistest.Run(t, fixture("telemetry", "allowed"), "mube/cmd/mube", rules.Telemetry)
}

func TestWorkerPure(t *testing.T) {
	analysistest.Run(t, fixture("workerpure"), "mube/internal/opt/fixture", rules.WorkerPure)
}

func TestWorkerPureOutOfScope(t *testing.T) {
	// Outside the deterministic core, goroutine closures are not workers:
	// the violating fixture produces no diagnostics under internal/session.
	analysistest.Run(t, fixtureNoWants(t, "workerpure"), "mube/internal/session", rules.WorkerPure)
}

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, fixture("ctxflow", "core"), "mube/internal/opt/fixture", rules.CtxFlow)
}

func TestCtxFlowAllowlisted(t *testing.T) {
	analysistest.Run(t, fixture("ctxflow", "allowed"), "mube/internal/exp", rules.CtxFlow)
}

func TestAtomicMix(t *testing.T) {
	analysistest.Run(t, fixture("atomicmix"), "mube/internal/fixture/atomicmix", rules.AtomicMix)
}

func TestLeakJoin(t *testing.T) {
	analysistest.Run(t, fixture("leakjoin"), "mube/internal/fixture/leakjoin", rules.LeakJoin)
}

func TestLeakJoinOutOfScope(t *testing.T) {
	// cmd/ may fire-and-forget (debug servers); the violating fixture is
	// silent under a cmd path.
	analysistest.Run(t, fixtureNoWants(t, "leakjoin"), "mube/cmd/mube-bench", rules.LeakJoin)
}

func TestSpanEnd(t *testing.T) {
	analysistest.Run(t, fixture("spanend"), "mube/internal/fixture/spanend", rules.SpanEnd)
}

func TestSpanEndInCmd(t *testing.T) {
	// Span hygiene applies module-wide — cmd/ binaries write the very traces
	// the goldens pin — so the violating fixture still reports under cmd/.
	analysistest.Run(t, fixture("spanend"), "mube/cmd/mube", rules.SpanEnd)
}

func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range rules.All {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incompletely declared", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(rules.All) < 5 {
		t.Errorf("registry has %d analyzers, want at least 5", len(rules.All))
	}
	var _ []*analysis.Analyzer = rules.All
}
