package telemetry

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// buildSampleTrace emits a small clocked two-level trace and returns its
// JSONL bytes alongside the in-memory events.
func buildSampleTrace() ([]byte, []Event) {
	var buf bytes.Buffer
	mem := &MemorySink{}
	clk := &fakeClock{t: time.Unix(0, 0)}
	r := NewClocked(Tee(NewJSONLSink(&buf), mem), clk)
	tick := r.BeginSpan("watch.tick", Int("epoch", 1))
	churn := r.BeginSpan("watch.churn")
	clk.advance(5 * time.Millisecond)
	r.Emit("watch.drift", Int("drifted", 2))
	churn.End(Int("died", 1))
	res := r.BeginSpan("watch.resolve")
	clk.advance(20 * time.Millisecond)
	r.Emit("solver.iter", Int("iter", 0), Float("best_q", 0.5))
	r.Emit("solver.iter", Int("iter", 1), Float("best_q", 0.75))
	res.End()
	tick.End()
	r.Emit("loose", Float("nan", math.NaN()))
	return buf.Bytes(), mem.Events()
}

func TestParseTraceRoundTrip(t *testing.T) {
	raw, want := buildSampleTrace()
	got, err := ParseTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d events, want %d", len(got), len(want))
	}
	// Re-encoding the parsed events must reproduce the input bytes exactly —
	// the attribute-order-preserving inverse property mube-trace relies on.
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	for _, ev := range got {
		sink.Write(ev)
	}
	if buf.String() != string(raw) {
		t.Fatalf("re-encode mismatch:\n got %s\nwant %s", buf.String(), raw)
	}
	for i, ev := range got {
		if ev.Seq != want[i].Seq || ev.Name != want[i].Name || ev.SID != want[i].SID ||
			ev.PSID != want[i].PSID || ev.IsBegin != want[i].IsBegin || ev.Stamped != want[i].Stamped {
			t.Fatalf("event %d mismatch: got %+v want %+v", i, ev, want[i])
		}
	}
}

func TestParseTraceRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		`{"seq":1}`,                      // missing ev
		`{"ev":"x"}`,                     // missing seq
		`{"seq":1,"ev":"x","k":[1,2]}`,   // nested value
		`{"seq":"one","ev":"x"}`,         // non-numeric seq
		`[1,2,3]`,                        // not an object
		`{"seq":1,"ev":"x"} trailing {]`, // malformed tail
	} {
		if _, err := ParseTrace(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseTrace(%q) accepted", bad)
		}
	}
}

// TestProfileParsedMatchesMemory: a parsed trace folds to the same profile
// as the in-memory events of the same run. The sink writes best_q 0 as 0,
// which parses back as an int64.
func TestProfileParsedMatchesMemory(t *testing.T) {
	var buf bytes.Buffer
	mem := &MemorySink{}
	r := New(Tee(NewJSONLSink(&buf), mem))
	sp := r.BeginSpan("solver.run")
	r.Emit("solver.iter", Int("iter", 0), Float("best_q", 0.5))
	r.Emit("solver.iter", Int("iter", 1), Float("best_q", 0))
	sp.End()
	parsed, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, want := Profile(BuildTree(parsed)), Profile(BuildTree(mem.Events()))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("profile of the parsed trace:\n%+v\nwant (in memory):\n%+v", got, want)
	}
}

func TestBuildTreeAndProfile(t *testing.T) {
	_, evs := buildSampleTrace()
	tree := BuildTree(evs)
	if len(tree.Roots) != 1 || len(tree.Loose) != 1 {
		t.Fatalf("roots=%d loose=%d, want 1/1", len(tree.Roots), len(tree.Loose))
	}
	tick := tree.Roots[0]
	if tick.Name != "watch.tick" || len(tick.Children) != 2 || tick.Open {
		t.Fatalf("bad root: %+v", tick)
	}
	if tick.Dur() != (25 * time.Millisecond).Nanoseconds() {
		t.Fatalf("tick dur = %d", tick.Dur())
	}
	if tick.SelfDur() != 0 {
		t.Fatalf("tick self = %d, want 0 (fully covered by children)", tick.SelfDur())
	}
	res := tick.Children[1]
	if res.Name != "watch.resolve" {
		t.Fatalf("second child = %q", res.Name)
	}
	// Attribute inheritance: the child carries the tick's epoch attr.
	if v, ok := res.Attr("epoch"); !ok || v.(int64) != 1 {
		t.Fatalf("resolve epoch attr = %v, %v", v, ok)
	}

	stats := Profile(tree)
	if len(stats) != 3 {
		t.Fatalf("got %d phases: %+v", len(stats), stats)
	}
	if stats[0].Path != "watch.tick" || stats[0].Count != 1 {
		t.Fatalf("first phase: %+v", stats[0])
	}
	// Children sort by cumulative time: resolve (20ms) before churn (5ms).
	if stats[1].Path != "watch.tick/watch.resolve" || stats[2].Path != "watch.tick/watch.churn" {
		t.Fatalf("phase order: %q, %q", stats[1].Path, stats[2].Path)
	}
	//mube:vet-ignore floatcmp — Q values are exact binary floats carried through unchanged
	if !stats[1].HasQ || stats[1].QFirst != 0.5 || stats[1].QLast != 0.75 {
		t.Fatalf("resolve Q progress: %+v", stats[1])
	}
	if stats[2].SelfNS != (5 * time.Millisecond).Nanoseconds() {
		t.Fatalf("churn self = %d", stats[2].SelfNS)
	}

	var flame, wf bytes.Buffer
	if err := WriteFlame(&flame, tree); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"watch.tick", "watch.resolve", "q 0.500000 -> 0.750000", "80.0%"} {
		if !strings.Contains(flame.String(), want) {
			t.Fatalf("flame missing %q:\n%s", want, flame.String())
		}
	}
	if err := WriteWaterfall(&wf, tree); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"+5ms", "20ms", "| watch.resolve", "epoch=1"} {
		if !strings.Contains(wf.String(), want) {
			t.Fatalf("waterfall missing %q:\n%s", want, wf.String())
		}
	}
}

func TestBuildTreeOpenAndOrphanSpans(t *testing.T) {
	mem := &MemorySink{}
	r := New(mem)
	//mube:vet-ignore spanend — truncated-trace fixture: the span must leak
	sp := r.BeginSpan("never.ended")
	r.Emit("inside")
	_ = sp
	evs := mem.Events()
	// An end event for an id that was never begun.
	evs = append(evs, Event{Seq: 99, Name: "ghost.end", SID: 77})
	tree := BuildTree(evs)
	if len(tree.Roots) != 1 || !tree.Roots[0].Open {
		t.Fatalf("open span not preserved: %+v", tree.Roots)
	}
	if tree.Roots[0].Dur() != 0 {
		t.Fatal("open span must report zero duration")
	}
	if len(tree.Loose) != 1 || tree.Loose[0].Name != "ghost.end" {
		t.Fatalf("orphan end not loose: %+v", tree.Loose)
	}
}
