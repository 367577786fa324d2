package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	_ = w.Close()
	os.Stdout = old
	data, _ := io.ReadAll(r)
	if runErr != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", runErr, data)
	}
	return string(data)
}

// genUniverseFile writes a small universe file and returns its path.
func genUniverseFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "u.json")
	captureStdout(t, func() error {
		return cmdGen([]string{"-n", "40", "-scale", "0.002", "-seed", "2", "-o", path})
	})
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("gen wrote nothing: %v", err)
	}
	return path
}

func TestCmdGenAndInspect(t *testing.T) {
	path := genUniverseFile(t)
	out := captureStdout(t, func() error { return cmdInspect([]string{"-u", path}) })
	if !strings.Contains(out, "universe: 40 sources") {
		t.Errorf("inspect summary:\n%s", out)
	}
	out = captureStdout(t, func() error { return cmdInspect([]string{"-u", path, "-source", "3"}) })
	if !strings.Contains(out, "source 3:") || !strings.Contains(out, "schema:") {
		t.Errorf("inspect detail:\n%s", out)
	}
	// The characteristic lines close the detail, in name order, with the
	// file's values.
	var file struct {
		Sources []struct {
			Characteristics map[string]float64 `json:"characteristics"`
		} `json:"sources"`
	}
	data, err := os.ReadFile(path)
	if err != nil || json.Unmarshal(data, &file) != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	chars := file.Sources[3].Characteristics
	var want strings.Builder
	for _, name := range []string{"latency", "mttf"} {
		v, ok := chars[name]
		if !ok || len(chars) != 2 {
			t.Fatalf("source 3 characteristics %v, want latency and mttf", chars)
		}
		fmt.Fprintf(&want, "  %-12s %.2f\n", name+":", v)
	}
	if !strings.HasSuffix(out, want.String()) {
		t.Errorf("inspect detail:\n%s\nwant it to end with:\n%s", out, want.String())
	}
	if err := cmdInspect([]string{"-u", path, "-source", "999"}); err == nil {
		t.Error("out-of-range source accepted")
	}
	if err := cmdInspect([]string{"-u", "/does/not/exist.json"}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCmdGenStdout(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdGen([]string{"-n", "5", "-scale", "0.002", "-o", "-"})
	})
	if !strings.Contains(out, `"sources"`) {
		t.Errorf("gen to stdout did not emit JSON:\n%.200s", out)
	}
}

func TestCmdFind(t *testing.T) {
	path := genUniverseFile(t)
	out := captureStdout(t, func() error { return cmdFind([]string{"-u", path, "-k", "3", "author", "price"}) })
	if !strings.Contains(out, "matched:") {
		t.Errorf("find output:\n%s", out)
	}
	if n := strings.Count(out, "\n"); n > 3 {
		t.Errorf("find returned more than k=3 hits:\n%s", out)
	}
	out = captureStdout(t, func() error { return cmdFind([]string{"-u", path, "zzznothing"}) })
	if !strings.Contains(out, "no sources match") {
		t.Errorf("no-match output:\n%s", out)
	}
	if err := cmdFind([]string{"-u", path}); err == nil {
		t.Error("find without keywords accepted")
	}
}

func TestCmdSolve(t *testing.T) {
	path := genUniverseFile(t)
	rep := filepath.Join(t.TempDir(), "report.json")
	out := captureStdout(t, func() error {
		return cmdSolve([]string{"-u", path, "-m", "5", "-evals", "200", "-require", "1,2", "-report", rep})
	})
	if !strings.Contains(out, "overall quality Q(S)") || !strings.Contains(out, "mediated schema") {
		t.Errorf("solve output:\n%s", out)
	}
	// Required sources appear in the listing.
	if !strings.Contains(out, "[  1]") || !strings.Contains(out, "[  2]") {
		t.Errorf("required sources missing:\n%s", out)
	}
	if fi, err := os.Stat(rep); err != nil || fi.Size() == 0 {
		t.Errorf("report not written: %v", err)
	}
	// Bad flags error out.
	if err := cmdSolve([]string{"-u", path, "-m", "5", "-require", "abc"}); err == nil {
		t.Error("bad require accepted")
	}
	if err := cmdSolve([]string{"-u", path, "-m", "5", "-weights", "nope=1"}); err == nil {
		t.Error("unknown weight accepted")
	}
	if err := cmdSolve([]string{"-u", path, "-m", "5", "-sim", "bogus"}); err == nil {
		t.Error("unknown similarity accepted")
	}
	if err := cmdSolve([]string{"-u", path, "-m", "5", "-solver", "bogus"}); err == nil {
		t.Error("unknown solver accepted")
	}
}

func TestCmdSolveTraceAndMetrics(t *testing.T) {
	path := genUniverseFile(t)
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	out := captureStdout(t, func() error {
		return cmdSolve([]string{"-u", path, "-m", "5", "-evals", "200", "-trace", trace, "-metrics"})
	})
	if !strings.Contains(out, "mube solve: solver=tabu") {
		t.Errorf("run header missing:\n%s", out)
	}
	if !strings.Contains(out, "counter") || !strings.Contains(out, "eval.calls") {
		t.Errorf("metrics summary missing:\n%s", out)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	first := strings.SplitN(string(data), "\n", 2)[0]
	if !strings.Contains(first, `"ev":"session.solve.begin"`) {
		t.Errorf("first trace line = %s", first)
	}
	if !strings.Contains(string(data), `"ev":"solver.done"`) {
		t.Errorf("trace has no solver.done event:\n%.300s", data)
	}

	// -metrics alone: no trace file, summary still printed, output otherwise
	// the normal solve rendering.
	out = captureStdout(t, func() error {
		return cmdSolve([]string{"-u", path, "-m", "5", "-evals", "200", "-metrics"})
	})
	if !strings.Contains(out, "trace=off") || !strings.Contains(out, "eval.memo_hits") {
		t.Errorf("-metrics without -trace:\n%s", out)
	}
}

func TestCmdSolveWithCustomWeightsAndSolver(t *testing.T) {
	path := genUniverseFile(t)
	out := captureStdout(t, func() error {
		return cmdSolve([]string{
			"-u", path, "-m", "4", "-evals", "150", "-solver", "anneal",
			"-weights", "match=0.4,card=0.2,coverage=0.2,redundancy=0.1,mttf=0.1",
		})
	})
	if !strings.Contains(out, "[anneal,") {
		t.Errorf("solver not applied:\n%s", out)
	}
}

func TestCmdSolveSpecRoundTrip(t *testing.T) {
	path := genUniverseFile(t)
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")

	// Build a session via flags, save its spec through the session API.
	fsOut := captureStdout(t, func() error {
		return cmdSolve([]string{"-u", path, "-m", "4", "-evals", "150", "-require", "3"})
	})
	_ = fsOut
	// Hand-write a minimal spec and solve with it.
	if err := os.WriteFile(spec, []byte(`{
		"weights": null, "theta": 0.5, "beta": 2, "linkage": "max",
		"max_sources": 4, "solver": "tabu", "source_constraints": [3],
		"seed": 1, "max_evals": 150
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error {
		return cmdSolve([]string{"-u", path, "-spec", spec})
	})
	if !strings.Contains(out, "[  3]") {
		t.Errorf("spec constraint not honored:\n%s", out)
	}
}

// TestCmdSolveTraceCreatesParentDirs pins the -trace path contract: missing
// parent directories are created, and a path that cannot be created errors
// with the trace path named.
func TestCmdSolveTraceCreatesParentDirs(t *testing.T) {
	path := genUniverseFile(t)
	trace := filepath.Join(t.TempDir(), "out", "nested", "trace.jsonl")
	captureStdout(t, func() error {
		return cmdSolve([]string{"-u", path, "-m", "5", "-evals", "200", "-trace", trace})
	})
	if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
		t.Fatalf("trace not created under new parent dirs: %v", err)
	}
	// A parent that is a regular file cannot become a directory.
	blocked := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(blocked, "trace.jsonl")
	err := cmdSolve([]string{"-u", path, "-m", "5", "-evals", "200", "-trace", bad})
	if err == nil || !strings.Contains(err.Error(), bad) {
		t.Errorf("error does not name the trace path: %v", err)
	}
}

// TestCmdSolveDebugAddr checks the live endpoint wiring: an ephemeral
// -debug-addr boots, prints its address, and does not disturb the solve.
func TestCmdSolveDebugAddr(t *testing.T) {
	path := genUniverseFile(t)
	out := captureStdout(t, func() error {
		return cmdSolve([]string{"-u", path, "-m", "5", "-evals", "200", "-debug-addr", "127.0.0.1:0"})
	})
	if !strings.Contains(out, "debug: /metrics, /spans, and pprof on http://127.0.0.1:") {
		t.Errorf("debug endpoint line missing:\n%s", out)
	}
	if !strings.Contains(out, "overall quality Q(S)") {
		t.Errorf("solve output missing:\n%s", out)
	}
}

// TestCmdWatchTraceAndDebugAddr runs a tiny watch loop with both the trace
// file (under a fresh parent dir) and the live endpoint enabled.
func TestCmdWatchTraceAndDebugAddr(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "watch", "trace.jsonl")
	out := captureStdout(t, func() error {
		return cmdWatch([]string{"-gen", "30", "-scale", "0.002", "-epochs", "2",
			"-evals", "100", "-trace", trace, "-debug-addr", "127.0.0.1:0"})
	})
	if !strings.Contains(out, "debug: /metrics, /spans, and pprof on http://127.0.0.1:") {
		t.Errorf("debug endpoint line missing:\n%s", out)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("watch trace not written: %v", err)
	}
	if !strings.Contains(string(data), `"ev":"watch.tick.begin"`) {
		t.Errorf("watch trace has no tick span:\n%.300s", data)
	}
}

// TestWriteFileFailureKeepsTarget pins writeFile's atomicity: a write that
// fails part-way leaves the existing target byte-identical and no temporary
// file behind.
func TestWriteFileFailureKeepsTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	old := []byte(`{"weights":{"match":1}}`)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	errWrite := errors.New("disk full")
	err := writeFile(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, `{"weights":`); err != nil {
			return err
		}
		return errWrite
	})
	if !errors.Is(err, errWrite) {
		t.Fatalf("writeFile error = %v, want %v", err, errWrite)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Errorf("target changed by a failed write: %q, want %q", got, old)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "spec.json" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("directory holds %v, want only spec.json", names)
	}
}
