package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	r.Emit("ev", Int("k", 1))
	r.Add("c", 2)
	r.Gauge("g", 3)
	r.Observe("h", 4)
	sp := r.BeginSpan("span")
	sp.End(Int("done", 1))
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil recorder produced metrics: %+v", snap)
	}
}

func TestJSONLEncodingDeterministic(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		r := New(NewJSONLSink(&buf))
		r.Emit("solver.iter", Int("iter", 1), Float("best_q", 0.75), Str("solver", "tabu"), Bool("tabu", true))
		r.Emit("eval.batch", Int("cands", 30), Float("neg_inf", math.Inf(-1)))
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("encoding not deterministic:\n%s\nvs\n%s", a, b)
	}
	want := `{"seq":1,"ev":"solver.iter","iter":1,"best_q":0.75,"solver":"tabu","tabu":true}` + "\n" +
		`{"seq":2,"ev":"eval.batch","cands":30,"neg_inf":null}` + "\n"
	if a != want {
		t.Fatalf("unexpected encoding:\n got %q\nwant %q", a, want)
	}
	// Every line must be valid JSON.
	for _, line := range strings.Split(strings.TrimSpace(a), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %q is not valid JSON: %v", line, err)
		}
	}
}

// TestJSONLStringEscapes: names, keys and string values are written as JSON
// strings, so every line parses — control characters, DEL and invalid UTF-8
// included.
func TestJSONLStringEscapes(t *testing.T) {
	for _, tc := range []struct{ in, enc, back string }{
		{"plain", `"plain"`, "plain"},
		{`q"b\s`, `"q\"b\\s"`, `q"b\s`},
		{"\n\r\t", `"\n\r\t"`, "\n\r\t"},
		{"a\x01b", `"a\u0001b"`, "a\x01b"},
		{"\a\v\x00\x1f\x7f", `"\u0007\u000b\u0000\u001f\u007f"`, "\a\v\x00\x1f\x7f"},
		{"bad\xffutf8", `"bad\ufffdutf8"`, "bad\ufffdutf8"},
		{"é\U000e0001", "\"é\U000e0001\"", "é\U000e0001"},
	} {
		var buf bytes.Buffer
		NewJSONLSink(&buf).Write(Event{Seq: 1, Name: tc.in, Attrs: []Attr{Str(tc.in, tc.in)}})
		if want := `{"seq":1,"ev":` + tc.enc + `,` + tc.enc + `:` + tc.enc + "}\n"; buf.String() != want {
			t.Errorf("%q encodes as %s, want %s", tc.in, buf.String(), want)
		}
		evs, err := ParseTrace(&buf)
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		if ev := evs[0]; ev.Name != tc.back || ev.Attrs[0].Key != tc.back || ev.Attrs[0].Value != tc.back {
			t.Errorf("%q parses back as %+v, want %q", tc.in, ev, tc.back)
		}
	}
}

type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time { return c.t }
func (c *fakeClock) advance(d time.Duration) {
	c.t = c.t.Add(d)
}

func TestClockedSpans(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	sink := &MemorySink{}
	r := NewClocked(sink, clk)
	sp := r.BeginSpan("session.solve", Str("solver", "tabu"))
	clk.advance(42 * time.Millisecond)
	sp.End(Int("evals", 7))
	evs := sink.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Name != "session.solve.begin" || !evs[0].Stamped || evs[0].TNano != 0 {
		t.Fatalf("bad begin event: %+v", evs[0])
	}
	if evs[0].SID != evs[0].Seq || !evs[0].IsBegin || evs[0].PSID != 0 {
		t.Fatalf("bad begin span ids: %+v", evs[0])
	}
	end := evs[1]
	if end.Name != "session.solve.end" {
		t.Fatalf("bad end event name: %q", end.Name)
	}
	if end.SID != evs[0].Seq {
		t.Fatalf("end sid = %d, want %d", end.SID, evs[0].Seq)
	}
	if v, ok := end.Attr("dur_ns"); !ok || v.(int64) != (42*time.Millisecond).Nanoseconds() {
		t.Fatalf("dur_ns = %v, want %d", v, (42 * time.Millisecond).Nanoseconds())
	}
}

func TestSpanTreeLinkage(t *testing.T) {
	sink := &MemorySink{}
	r := New(sink)
	root := r.BeginSpan("root")
	r.Emit("in.root")
	child := r.BeginSpan("child")
	r.Emit("in.child")
	grand := r.BeginSpan("grand")
	grand.End()
	child.End()
	r.Emit("in.root.again")
	root.End()
	r.Emit("outside")

	evs := sink.Events()
	byName := func(name string) Event {
		for _, ev := range evs {
			if ev.Name == name {
				return ev
			}
		}
		t.Fatalf("event %q not found", name)
		return Event{}
	}
	rootID := byName("root.begin").SID
	childID := byName("child.begin").SID
	grandID := byName("grand.begin").SID
	if byName("root.begin").PSID != 0 {
		t.Fatalf("root psid = %d, want 0", byName("root.begin").PSID)
	}
	if byName("child.begin").PSID != rootID {
		t.Fatalf("child psid = %d, want %d", byName("child.begin").PSID, rootID)
	}
	if byName("grand.begin").PSID != childID {
		t.Fatalf("grand psid = %d, want %d", byName("grand.begin").PSID, childID)
	}
	if byName("in.root").SID != rootID || byName("in.root.again").SID != rootID {
		t.Fatal("events in root must carry root sid")
	}
	if byName("in.child").SID != childID {
		t.Fatal("events in child must carry child sid")
	}
	if byName("grand.end").SID != grandID || byName("child.end").SID != childID || byName("root.end").SID != rootID {
		t.Fatal("end events must carry their own span id")
	}
	if byName("outside").SID != 0 {
		t.Fatalf("event outside all spans has sid %d, want 0", byName("outside").SID)
	}
}

func TestSpanEndPopsSkippedChildren(t *testing.T) {
	sink := &MemorySink{}
	r := New(sink)
	outer := r.BeginSpan("outer")
	//mube:vet-ignore spanend — deliberately leaked to exercise the defensive pop
	_ = r.BeginSpan("leaked")
	outer.End()
	r.Emit("after")
	evs := sink.Events()
	last := evs[len(evs)-1]
	if last.Name != "after" || last.SID != 0 {
		t.Fatalf("stack not cleaned after defensive pop: %+v", last)
	}
}

func TestMetricsConcurrent(t *testing.T) {
	r := New(nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add("eval.computed", 1)
				r.Observe("eval.batch_size", float64(i%40))
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if got := snap.Counter("eval.computed"); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	h := snap.Histograms["eval.batch_size"]
	if h.Count != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count)
	}
	var bucketed int64
	for _, c := range h.Counts {
		bucketed += c
	}
	if bucketed+h.Overflow != h.Count {
		t.Fatalf("buckets %d + overflow %d != count %d", bucketed, h.Overflow, h.Count)
	}
	//mube:vet-ignore floatcmp — observed values are exact small integers
	if h.Min != 0 || h.Max != 39 {
		t.Fatalf("min/max = %g/%g, want 0/39", h.Min, h.Max)
	}
	// Snapshot must round-trip through encoding/json (finite bounds only).
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-encodable: %v", err)
	}
}

func TestHeaderAndLines(t *testing.T) {
	h := Header("mube-bench", KVStr("scale", "quick"), KVInt("seed", 1), KVStr("faults", "off"))
	if h != "mube-bench: scale=quick seed=1 faults=off" {
		t.Fatalf("header = %q", h)
	}
}

func TestWriteSummary(t *testing.T) {
	r := New(nil)
	r.Add("eval.memo_hits", 10)
	r.Add("eval.computed", 30)
	r.Gauge("solver.best_q", 0.8125)
	r.Observe("eval.batch_size", 30)
	var buf bytes.Buffer
	if err := WriteSummary(&buf, r.Snapshot()); err != nil {
		t.Fatalf("WriteSummary: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"eval.memo_hits", "eval.computed", "solver.best_q", "eval.batch_size"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestEmitOrderAcrossGoroutinesHasUniqueSeqs(t *testing.T) {
	sink := &MemorySink{}
	r := New(sink)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Emit("ev")
			}
		}()
	}
	wg.Wait()
	evs := sink.Events()
	if len(evs) != 400 {
		t.Fatalf("got %d events, want 400", len(evs))
	}
	seen := make(map[int64]bool, len(evs))
	for i, ev := range evs {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
		if ev.Seq != int64(i+1) {
			t.Fatalf("seq %d at position %d: emission order must match seq order", ev.Seq, i)
		}
	}
}
