// Command mube-vet runs µBE's repo-specific static analyzers (package
// mube/internal/analysis/rules) over the module and reports file:line:col
// diagnostics.
//
// Usage:
//
//	mube-vet [-list] [packages]
//
// The flag may come before or after the package patterns. With no patterns
// it checks ./.... Exit status is 0 when the tree is clean, 1 when
// diagnostics were reported, and 2 when the packages could not be loaded or
// type-checked (the two failure modes CI must be able to tell apart: a dirty
// tree is a policy violation, a broken load is a build problem).
package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"mube/internal/analysis"
	"mube/internal/analysis/rules"
)

// Exit codes. CI scripts rely on the distinction.
const (
	exitClean       = 0
	exitDiagnostics = 1
	exitLoadFailure = 2
)

func main() {
	os.Exit(run(".", os.Args[1:], os.Stdout, os.Stderr))
}

func run(dir string, args []string, stdout, stderr io.Writer) int {
	var patterns []string
	list := false
	for _, a := range args {
		if a == "" || a[0] != '-' {
			patterns = append(patterns, a)
			continue
		}
		switch strings.TrimLeft(a, "-") {
		case "list":
			list = true
		case "h", "help":
			usage(stderr)
			return exitLoadFailure
		default:
			fmt.Fprintf(stderr, "mube-vet: unknown flag %s\n", a)
			usage(stderr)
			return exitLoadFailure
		}
	}
	if list {
		names := append([]*analysis.Analyzer{}, rules.All...)
		sort.Slice(names, func(i, j int) bool { return names[i].Name < names[j].Name })
		for _, an := range names {
			fmt.Fprintf(stdout, "%s: %s\n", an.Name, an.Doc)
		}
		return exitClean
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	diags, npkgs, err := analysis.CheckPackages(dir, rules.All, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "mube-vet: %v\n", err)
		return exitLoadFailure
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "mube-vet: %d issue(s) in %d package(s)\n", len(diags), npkgs)
		return exitDiagnostics
	}
	return exitClean
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: mube-vet [-list] [packages]

Runs µBE's analyzers (see -list) over the given package patterns (default
./...). The flag may come before or after the patterns.

  -list   print the registered analyzers (sorted) and exit

Exit status: 0 clean, 1 diagnostics reported, 2 load/type-check failure.
`)
}
