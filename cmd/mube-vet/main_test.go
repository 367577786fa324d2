package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mube/internal/analysis/rules"
)

// TestSelfClean is the self-clean invariant: every registered analyzer runs
// over the real module and must produce zero diagnostics. A regression
// anywhere in the tree fails this test before it fails CI.
func TestSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	var stdout, stderr bytes.Buffer
	code := run("../..", []string{"./..."}, &stdout, &stderr)
	if code != exitClean {
		t.Errorf("mube-vet ./... = exit %d, want %d\nstdout:\n%s\nstderr:\n%s",
			code, exitClean, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean tree produced diagnostics:\n%s", stdout.String())
	}
}

// writeModule materializes a throwaway module for exit-code tests.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go command")
	}
	const gomod = "module scratch\n\ngo 1.22\n"
	cases := []struct {
		name     string
		files    map[string]string
		args     []string
		wantCode int
		wantOut  string // substring of stdout
		wantErr  string // substring of stderr
	}{
		{
			name: "clean module exits 0",
			files: map[string]string{
				"go.mod":  gomod,
				"main.go": "package main\n\nfunc main() {}\n",
			},
			wantCode: exitClean,
		},
		{
			name: "diagnostics exit 1",
			files: map[string]string{
				"go.mod": gomod,
				"main.go": "package main\n\nfunc main() {\n" +
					"\ta, b := 0.1, 0.2\n\tif a == b {\n\t\tpanic(\"equal\")\n\t}\n}\n",
			},
			wantCode: exitDiagnostics,
			wantOut:  "[floatcmp]",
			wantErr:  "issue(s)",
		},
		{
			name: "type-check failure exits 2",
			files: map[string]string{
				"go.mod":  gomod,
				"main.go": "package main\n\nfunc main() { var x int = \"not an int\" }\n",
			},
			wantCode: exitLoadFailure,
			wantErr:  "mube-vet:",
		},
		{
			name: "syntax error exits 2",
			files: map[string]string{
				"go.mod":  gomod,
				"main.go": "package main\n\nfunc main() {\n",
			},
			wantCode: exitLoadFailure,
			wantErr:  "mube-vet:",
		},
		{
			name: "unmatched pattern exits 2",
			files: map[string]string{
				"go.mod":  gomod,
				"main.go": "package main\n\nfunc main() {}\n",
			},
			args:     []string{"./doesnotexist"},
			wantCode: exitLoadFailure,
			wantErr:  "mube-vet:",
		},
		{
			name:     "unknown flag exits 2",
			files:    map[string]string{"go.mod": gomod},
			args:     []string{"-bogus"},
			wantCode: exitLoadFailure,
			wantErr:  "unknown flag",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeModule(t, tc.files)
			var stdout, stderr bytes.Buffer
			code := run(dir, tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Errorf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					code, tc.wantCode, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.wantOut) {
				t.Errorf("stdout missing %q:\n%s", tc.wantOut, stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.wantErr) {
				t.Errorf("stderr missing %q:\n%s", tc.wantErr, stderr.String())
			}
		})
	}
}

// TestListFlag: -list prints every registered analyzer, sorted by name.
func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(".", []string{"-list"}, &stdout, &stderr); code != exitClean {
		t.Fatalf("-list exit = %d, stderr: %s", code, stderr.String())
	}
	var got, want []string
	for _, l := range strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n") {
		got = append(got, strings.SplitN(l, ":", 2)[0])
	}
	for _, a := range rules.All {
		want = append(want, a.Name)
	}
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("-list names = %v, want %v", got, want)
	}
}

// TestFlagsAfterPatterns: a flag after a package pattern is still honored.
func TestFlagsAfterPatterns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(".", []string{"./...", "-list"}, &stdout, &stderr); code != exitClean {
		t.Fatalf("exit = %d, want %d\nstderr: %s", code, exitClean, stderr.String())
	}
	if !strings.Contains(stdout.String(), "floatcmp: ") {
		t.Errorf("-list after a pattern not honored:\n%s", stdout.String())
	}
}
