package pcsa_test

import (
	"testing"

	"mube/internal/pcsa"
	"mube/internal/testutil"
)

// skipUnderRace skips allocation-budget tests when the race detector is on:
// its instrumentation inflates AllocsPerRun counts non-deterministically.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
}

func fill(s *pcsa.Signature, seed, n uint64) {
	for i := uint64(0); i < n; i++ {
		s.AddUint64(seed*1_000_003 + i)
	}
}

// TestKernelAllocs pins the word kernels at zero allocations: Estimate,
// MergeFrom, and the flip union's Reset, Add and EstimateDelta (every flip
// shape) are the innermost work of every objective evaluation and every
// delta batch, and must never touch the heap in steady state.
func TestKernelAllocs(t *testing.T) {
	skipUnderRace(t)
	cfg := pcsa.Config{NumMaps: 64}
	a, b := pcsa.MustNew(cfg), pcsa.MustNew(cfg)
	fill(a, 1, 500)
	fill(b, 2, 500)
	acc := pcsa.MustNew(cfg)

	if n := testing.AllocsPerRun(100, func() { _ = a.Estimate() }); n != 0 {
		t.Errorf("Estimate: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		acc.CopyFrom(a)
		if err := acc.MergeFrom(b); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("CopyFrom+MergeFrom: %v allocs/op, want 0", n)
	}
	f, err := pcsa.NewFlipUnion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		f.Reset()
		if err := f.Add(a); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Reset+Add: %v allocs/op, want 0", n)
	}
	for _, flip := range []struct {
		name      string
		add, drop *pcsa.Signature
	}{{"add", b, nil}, {"drop", nil, a}, {"swap", b, a}, {"no-op", nil, nil}} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := f.EstimateDelta(flip.add, flip.drop); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("EstimateDelta %s: %v allocs/op, want 0", flip.name, n)
		}
	}
}
