// Package analysis is a small, stdlib-only static-analysis framework for the
// µBE repository. It deliberately avoids golang.org/x/tools: packages are
// loaded through `go list -export`, type-checked with go/types against the
// toolchain's export data, and walked with go/ast.
//
// The framework exists to enforce repo-specific invariants that ordinary
// `go vet` cannot express — determinism of the optimization stack, float
// comparison hygiene, and error discipline (see package rules). Analyzers
// are pure functions over a type-checked package; the cmd/mube-vet driver
// wires them to the module and to CI.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer is one named check. Run inspects the package behind the Pass
// and reports diagnostics through it; it must not retain the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	// It must be a lowercase identifier.
	Name string
	// Doc is a one-paragraph description shown by `mube-vet -list`.
	Doc string
	// Run performs the check.
	Run func(*Pass)
}

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Position token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Position, d.Analyzer, d.Message)
}

// A Pass connects one analyzer to one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	// Pkg is the type-checked package; TypesInfo holds its resolved
	// expression types, uses, and definitions.
	Pkg       *types.Package
	TypesInfo *types.Info
	// Path is the logical import path used for policy scoping. For test
	// variants ("p [p.test]", "p_test [p.test]") it is the path of the
	// package under test, so path-scoped rules treat test code as part of
	// the package it exercises.
	Path string

	ignores ignoreSet
	out     *[]Diagnostic
}

// Reportf records a diagnostic at pos unless an ignore directive suppresses
// it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.ignores.suppressed(position, p.Analyzer.Name) {
		return
	}
	*p.out = append(*p.out, Diagnostic{
		Position: position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// ignoreDirective matches suppression comments of the form
//
//	//mube:vet-ignore analyzer1,analyzer2 — optional reason
//	//mube:vet-ignore — optional reason (suppresses every analyzer)
//
// A directive silences diagnostics on its own line and, so that it can sit
// on a line of its own above the offending statement, on the line below.
var ignoreDirective = regexp.MustCompile(`^//\s*mube:vet-ignore(?:\s+([a-z0-9_,]+))?`)

type ignoreKey struct {
	file string
	line int
	name string // analyzer name, or "*" for all
}

type ignoreSet map[ignoreKey]bool

func (s ignoreSet) suppressed(pos token.Position, analyzer string) bool {
	return s[ignoreKey{pos.Filename, pos.Line, analyzer}] ||
		s[ignoreKey{pos.Filename, pos.Line, "*"}]
}

// collectIgnores scans file comments for vet-ignore directives.
func collectIgnores(fset *token.FileSet, files []*ast.File) ignoreSet {
	s := ignoreSet{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreDirective.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				names := []string{"*"}
				if m[1] != "" {
					names = strings.Split(m[1], ",")
				}
				pos := fset.Position(c.Pos())
				for _, name := range names {
					s[ignoreKey{pos.Filename, pos.Line, name}] = true
					s[ignoreKey{pos.Filename, pos.Line + 1, name}] = true
				}
			}
		}
	}
	return s
}

// Run applies every analyzer to every package and returns the merged
// diagnostics sorted by position, with exact duplicates (a file reached
// through overlapping package variants) removed.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		out = append(out, runPackage(pkg, analyzers)...)
	}
	return sortDiagnostics(out)
}

// runPackage applies the analyzers to one package and returns its raw
// diagnostics, unsorted.
func runPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	ignores := collectIgnores(pkg.Fset, pkg.Files)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Path:      pkg.Path,
			ignores:   ignores,
			out:       &out,
		}
		a.Run(pass)
	}
	return out
}

// sortDiagnostics orders diagnostics by (file, line, column, analyzer,
// message) and removes exact duplicates (a file reached through overlapping
// package variants). The total order is what makes mube-vet's output
// byte-identical regardless of package schedule or worker count.
func sortDiagnostics(out []Diagnostic) []Diagnostic {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	dedup := out[:0]
	for i, d := range out {
		if i > 0 && d == out[i-1] {
			continue
		}
		dedup = append(dedup, d)
	}
	return dedup
}
