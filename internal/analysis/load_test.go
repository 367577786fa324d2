package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadTestVariants exercises the subtle part of target selection: a
// package with in-package and external test files must be analyzed as the
// test-augmented variant (lib + _test.go files together) plus the external
// test package — and not additionally as the bare package, or every
// diagnostic in a lib file would be reported twice.
func TestLoadTestVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go command")
	}
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.22\n")
	write("lib/lib.go", "package lib\n\n// Answer is fixed.\nfunc Answer() int { return 42 }\n\n"+
		"func eq(a, b float64) bool { return a == b }\n")
	write("lib/lib_test.go", "package lib\n\nimport \"testing\"\n\nfunc TestAnswer(t *testing.T) { _ = Answer() }\n")
	write("lib/ext_test.go", "package lib_test\n\nimport (\n\t\"testing\"\n\n\t\"scratch/lib\"\n)\n\nfunc TestExt(t *testing.T) { _ = lib.Answer() }\n")

	byPath, order, err := goList(dir, []string{"./..."}, true)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	fileCount := map[string]int{}
	for _, lp := range targets(order) {
		p, err := typecheck(lp, byPath)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p.ImportPath)
		fileCount[p.ImportPath] = len(p.Files)
		if p.Path != "scratch/lib" {
			t.Errorf("package %s: logical path = %q, want scratch/lib", p.ImportPath, p.Path)
		}
	}
	joined := strings.Join(got, "; ")
	if len(got) != 2 {
		t.Fatalf("targets returned %d packages (%s), want 2", len(got), joined)
	}
	if !strings.Contains(joined, "scratch/lib [scratch/lib.test]") {
		t.Errorf("missing test-augmented variant in %s", joined)
	}
	if !strings.Contains(joined, "scratch/lib_test") {
		t.Errorf("missing external test package in %s", joined)
	}
	if n := fileCount["scratch/lib [scratch/lib.test]"]; n != 2 {
		t.Errorf("augmented variant has %d files, want lib.go + lib_test.go", n)
	}

	// CheckPackages analyzes the same two targets.
	diags, n, err := CheckPackages(dir, testAnalyzers(), "./...")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(diags) != 1 {
		t.Errorf("CheckPackages: %d packages, diagnostics %v; want 2 packages and one diagnostic", n, diags)
	}
}

// TestLoadErrors: both failure modes surface as errors, never as empty
// results.
func TestLoadErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go command")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module scratch\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := CheckPackages(dir, testAnalyzers(), "./..."); err == nil {
		t.Error("module with no packages checked without error")
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte("package main\nfunc broken( {\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := CheckPackages(dir, testAnalyzers(), "./..."); err == nil {
		t.Error("syntactically broken package checked without error")
	}
}
