package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// scratchModule writes a throwaway module with one floatcmp violation per
// listed package.
func scratchModule(t *testing.T, pkgs ...string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module scratch\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		src := "package " + p + "\n\nfunc eq(a, b float64) bool { return a == b }\n"
		if err := os.MkdirAll(filepath.Join(dir, p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, p, p+".go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// testAnalyzers returns a minimal analyzer set for driver tests — flagging
// == between float64 operands — so the tests do not depend on package rules
// (which would be an import cycle).
func testAnalyzers() []*Analyzer {
	return []*Analyzer{{
		Name: "floateq",
		Doc:  "test analyzer: flag == on float64",
		Run: func(pass *Pass) {
			for _, f := range pass.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					bin, ok := n.(*ast.BinaryExpr)
					if !ok || bin.Op != token.EQL {
						return true
					}
					if t, ok := pass.TypesInfo.TypeOf(bin.X).(*types.Basic); ok && t.Kind() == types.Float64 {
						pass.Reportf(bin.OpPos, "float64 equality")
					}
					return true
				})
			}
		},
	}}
}

// TestCheckPackagesDeterministicAcrossParallel runs the driver with one
// worker and with eight (the pool is sized by GOMAXPROCS) and requires
// identical output.
func TestCheckPackagesDeterministicAcrossParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go command")
	}
	dir := scratchModule(t, "a", "b", "c", "d")
	run := func(workers int) []Diagnostic {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		diags, n, err := CheckPackages(dir, testAnalyzers(), "./...")
		if err != nil {
			t.Fatal(err)
		}
		if n != 4 {
			t.Fatalf("analyzed %d packages, want 4", n)
		}
		return diags
	}
	seq := run(1)
	par := run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("diagnostics differ across worker counts:\nseq: %v\npar: %v", seq, par)
	}
	if len(seq) != 4 {
		t.Errorf("got %d diagnostics, want 4 (one per package):\n%v", len(seq), seq)
	}
}
