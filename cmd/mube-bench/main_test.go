package main

import (
	"bytes"
	"strings"
	"testing"

	"mube/internal/exp"
)

// TestUnknownExperimentListsRegistry checks that an unknown -exp is a usage
// error that names every experiment of exp.Experiments() and runs nothing.
func TestUnknownExperimentListsRegistry(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("exit code %d, want 2; stderr: %s", code, errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("unknown experiment printed to stdout: %q", out.String())
	}
	var names []string
	for _, e := range exp.Experiments() {
		names = append(names, e.Name)
	}
	want := "available: " + strings.Join(names, " ") + " all\n"
	if !strings.Contains(errb.String(), `unknown experiment "nope"`) || !strings.HasSuffix(errb.String(), want) {
		t.Errorf("stderr = %q, want the unknown name and %q", errb.String(), want)
	}
}
