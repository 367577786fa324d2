package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
)

// TestSpanRingPairsAndWraps drives a ring directly as a sink: begin/end pairs
// complete into ring entries, leaked begins stay pending, and the ring keeps
// only the newest spans once full.
func TestSpanRingPairsAndWraps(t *testing.T) {
	ring := NewSpanRing()
	rec := New(ring)
	for i := 0; i < spanRingSize+1; i++ {
		sp := rec.BeginSpan("solver.run", Int("round", i))
		rec.Emit("solver.iter", Int("iter", 1))
		sp.End(Int("evals", 10*i))
	}
	//mube:vet-ignore spanend — deliberately left open: the ring must not report it
	rec.BeginSpan("watch.tick")

	spans := ring.Spans()
	if len(spans) != spanRingSize {
		t.Fatalf("ring holds %d spans, want %d", len(spans), spanRingSize)
	}
	for i, s := range spans {
		if s.Name != "solver.run" {
			t.Errorf("span %d name %q", i, s.Name)
		}
		round, evals := int64(i+1), int64(10*(i+1)) // oldest evicted
		if s.Attrs[0].K != "round" || s.Attrs[0].V != round {
			t.Errorf("span %d begin attr = %+v, want round=%d", i, s.Attrs[0], round)
		}
		if last := s.Attrs[len(s.Attrs)-1]; last.K != "evals" || last.V != evals {
			t.Errorf("span %d end attr = %+v, want evals=%d", i, last, evals)
		}
	}
}

// TestSpanRingClockedDuration checks DurNS is derived from the begin/end
// stamps and that NaN attr values null out (JSON cannot carry them).
func TestSpanRingClockedDuration(t *testing.T) {
	ring := NewSpanRing()
	clk := &fakeClock{}
	rec := NewClocked(ring, clk)
	sp := rec.BeginSpan("probe.build")
	clk.advance(5e6)
	sp.End(Float("bad", math.NaN()))
	spans := ring.Spans()
	if len(spans) != 1 || spans[0].DurNS != 5e6 || !spans[0].Stamped {
		t.Fatalf("spans = %+v, want one stamped 5ms span", spans)
	}
	if a := spans[0].Attrs[0]; a.K != "bad" || a.V != nil {
		t.Errorf("NaN attr survived: %+v", a)
	}
	if _, err := json.Marshal(spans); err != nil {
		t.Errorf("ring spans not marshalable: %v", err)
	}
}

func TestWritePrometheus(t *testing.T) {
	rec := New(nil)
	rec.Add("eval.calls", 42)
	rec.Gauge("solver.best_q", 0.75)
	rec.Observe("iter.improve_gap", 3)
	rec.Observe("iter.improve_gap", 900)
	rec.Observe("iter.improve_gap", 5000) // overflow bucket

	var b strings.Builder
	if err := WritePrometheus(&b, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE mube_eval_calls counter\nmube_eval_calls 42\n",
		"# TYPE mube_solver_best_q gauge\nmube_solver_best_q 0.75\n",
		"# TYPE mube_iter_improve_gap histogram\n",
		"mube_iter_improve_gap_bucket{le=\"4\"} 1\n",
		"mube_iter_improve_gap_bucket{le=\"1024\"} 2\n",
		"mube_iter_improve_gap_bucket{le=\"+Inf\"} 3\n",
		"mube_iter_improve_gap_sum 5903\n",
		"mube_iter_improve_gap_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Deterministic: a second render is byte-identical.
	var b2 strings.Builder
	if err := WritePrometheus(&b2, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("exposition is not deterministic across renders")
	}
}

// TestServeSmoke boots the live endpoint on an ephemeral port and exercises
// /metrics, /spans, the pprof index and the heap profile's MemStats over
// real HTTP.
func TestServeSmoke(t *testing.T) {
	ring := NewSpanRing()
	rec := New(ring)
	rec.Add("eval.calls", 7)
	sp := rec.BeginSpan("session.solve", Str("solver", "tabu"))
	sp.End(Float("best_q", 0.5))

	srv, err := Serve("127.0.0.1:0", rec, ring)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, body)
		}
		return string(body)
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, "mube_eval_calls 7") {
		t.Errorf("/metrics missing counter:\n%s", metrics)
	}
	var spans []SpanInfo
	if err := json.Unmarshal([]byte(get("/spans")), &spans); err != nil {
		t.Fatalf("/spans not JSON: %v", err)
	}
	if len(spans) != 1 || spans[0].Name != "session.solve" {
		t.Errorf("/spans = %+v, want one session.solve span", spans)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Errorf("/debug/pprof/ index:\n%.300s", idx)
	}
	if heap := get("/debug/pprof/heap?debug=1"); !strings.Contains(heap, "runtime.MemStats") {
		t.Errorf("/debug/pprof/heap?debug=1 missing the MemStats:\n%.300s", heap)
	}

	// nil recorder and ring must serve empty documents, not crash: every
	// command wires -debug-addr through unconditionally.
	srv2, err := Serve("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	resp, err := http.Get("http://" + srv2.Addr() + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if strings.TrimSpace(string(body)) != "[]" {
		t.Errorf("nil-ring /spans = %q, want []", body)
	}
}
