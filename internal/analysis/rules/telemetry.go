package rules

import (
	"go/ast"
	"strconv"

	"mube/internal/analysis"
)

// Telemetry keeps ad-hoc printing and the debug surface out of the core.
// Library packages under internal/ must report through the
// internal/telemetry facade: fmt.Print* / log.* writes would interleave with
// command output nondeterministically and bypass the no-op-by-default
// contract that makes instrumentation safe inside the deterministic core.
// Importing net/http/pprof is likewise banned there — the debug endpoint
// lives behind the telemetry.Serve facade (each command's -debug-addr flag),
// and keeping the import out of the rest of internal/ is what guarantees it
// can never be reached from inside the core. expvar is banned too: the
// recorder is the one counter system, and /metrics serves it.
var Telemetry = &analysis.Analyzer{
	Name: "telemetry",
	Doc: "forbid fmt.Print*/log.* calls and expvar / net/http/pprof imports " +
		"in internal/ packages (except testutil); report through " +
		"internal/telemetry instead",
	Run: runTelemetry,
}

// telemetryScope is every library package: all of internal/.
var telemetryScope = []string{
	modulePath + "/internal",
}

// telemetryAllow exempts packages whose job is producing human-readable
// output or test scaffolding: testutil builds fixtures and failure messages,
// and telemetry itself renders the summaries every binary prints.
var telemetryAllow = []string{
	modulePath + "/internal/testutil",
	modulePath + "/internal/telemetry",
}

// stdoutPrintFuncs are the fmt functions that write to process stdout.
// Fprint* (explicit writer) and Sprint*/Errorf (no I/O) stay legal.
var stdoutPrintFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
}

// bannedImports are the debug-surface packages that no internal/ package
// but telemetry may import.
var bannedImports = map[string]string{
	"expvar":         "count on the telemetry recorder, which telemetry.Serve exposes at /metrics",
	"net/http/pprof": "the pprof debug endpoint belongs in telemetry.Serve (-debug-addr)",
}

func runTelemetry(pass *analysis.Pass) {
	if !underAny(pass.Path, telemetryScope) || underAny(pass.Path, telemetryAllow) {
		return
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, banned := bannedImports[path]; banned {
				pass.Reportf(imp.Pos(), "import of %s in an internal package; %s", path, why)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkgPath, name := pkgFunc(pass, call)
			switch pkgPath {
			case "fmt":
				if stdoutPrintFuncs[name] {
					pass.Reportf(call.Pos(),
						"call to fmt.%s in an internal package; emit through the internal/telemetry facade (or print from cmd/)",
						name)
				}
			case "log":
				pass.Reportf(call.Pos(),
					"call to log.%s in an internal package; emit through the internal/telemetry facade",
					name)
			}
			return true
		})
	}
}
