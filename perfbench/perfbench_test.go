package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct{ Name, Unit string }
	var bench struct {
		EndToEnd []spec `json:"end_to_end"`
		PerLayer []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, s := range bench.EndToEnd {
		endToEnd[s.Name] = s.Unit
	}
	for _, s := range bench.PerLayer {
		perLayer[s.Name] = s.Unit
	}
	return endToEnd, perLayer
}

// sameMetrics fails unless got holds exactly the declared names and units.
func sameMetrics(t *testing.T, got metrics, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("got %d metrics, want %d", len(got), len(want))
	}
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("metric %s missing", name)
		} else if m.Unit != unit {
			t.Errorf("metric %s unit %q, want %q", name, m.Unit, unit)
		}
	}
}

// TestWorkloads runs a few ops of every workload untraced, traced and
// untraced again: no op fails, every declared metric is reported with its
// unit, and q_mean is bit-identical across all three runs.
func TestWorkloads(t *testing.T) {
	wantE2E, wantLayers := declared(t)
	ctx := context.Background()
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			w := wl
			w.qOps, w.rssOps = 2, 1
			measure := func(tr *tracer) *phase {
				p, err := runPhase(ctx, &w, 7, 0, 1, tr)
				if err != nil {
					t.Fatal(err)
				}
				if p.attempted() != w.qOps || p.failed != 0 {
					t.Fatalf("%d ops attempted, %d failed; want %d, 0", p.attempted(), p.failed, w.qOps)
				}
				return p
			}
			plain := measure(nil)
			tr := newTracer(w.attrSpans)
			traced := measure(tr)
			again := measure(nil)

			sameMetrics(t, endToEnd(plain), wantE2E)
			layers := perLayer(&w, plain, traced, tr)
			sameMetrics(t, layers, wantLayers)
			if v := layers["solver.run_ms"].Value; v <= 0 {
				t.Errorf("solver.run_ms = %v, want > 0", v)
			}

			q := math.Float64bits(plain.qMean())
			if q != math.Float64bits(traced.qMean()) || q != math.Float64bits(again.qMean()) {
				t.Errorf("q_mean differs: %v untraced, %v traced, %v again",
					plain.qMean(), traced.qMean(), again.qMean())
			}
		})
	}
}
