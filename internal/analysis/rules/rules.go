// Package rules holds µBE's repo-specific analyzers. Each analyzer encodes
// one invariant the paper's reproducibility story depends on:
//
//   - determinism: the optimization stack must draw randomness from an
//     injected *rand.Rand and time from an injectable clock, never from
//     process-global state (§7 experiment tables must replay bit-for-bit).
//   - floatcmp: quality scores Q(S) are float64; == / != on floats is how
//     replays silently diverge, so comparisons go through an epsilon helper.
//   - errdrop: a call whose error result vanishes in an expression
//     statement is a silent failure path.
//   - seedflow: literal seeds outside test scaffolding pin experiments to
//     hidden constants; seeds must come from config or Opts.Seed.
//   - telemetry: internal packages must report through the telemetry facade,
//     never fmt.Print*/log.*, the pprof debug surface must stay behind
//     telemetry.Serve, and counters live on the recorder, never expvar.
//   - spanend: a telemetry span begun must End on every path, or the
//     recorder's span stack leaks and traces misparent.
package rules

import (
	"go/ast"
	"go/types"
	"strings"

	"mube/internal/analysis"
)

// All is the registry the mube-vet driver runs, in reporting order.
var All = []*analysis.Analyzer{
	AtomicMix,
	CtxFlow,
	Determinism,
	ErrDrop,
	FloatCmp,
	LeakJoin,
	SeedFlow,
	SpanEnd,
	Telemetry,
	WorkerPure,
}

// modulePath is the import-path root policy scoping keys off.
const modulePath = "mube"

// underAny reports whether path is one of the prefixes or nested below one.
func underAny(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// pkgFunc resolves a call of the form pkg.F where pkg names an imported
// package, returning the package path and function name, or "" if the
// callee is anything else (method call, local function, conversion).
func pkgFunc(pass *analysis.Pass, call *ast.CallExpr) (pkgPath, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}
