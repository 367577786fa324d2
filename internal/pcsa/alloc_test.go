package pcsa_test

import (
	"math"
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
// MergeFrom, and the counting union's fused EstimateDelta are the innermost
// reads of every objective evaluation and must never touch the heap in steady
// state.
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
	c, err := pcsa.NewCounting(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(a); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := c.EstimateDelta(b, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("EstimateDelta: %v allocs/op, want 0", n)
	}
}

// TestArenaViews checks that arena-interned signatures are exact replicas
// (bit-identical estimates, merge-compatible) and that carving views out of a
// warm arena stays within its amortized slab budget — far below the
// one-object-per-signature of heap allocation.
func TestArenaViews(t *testing.T) {
	cfg := pcsa.Config{NumMaps: 64}
	arena, err := pcsa.NewArena(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var views []*pcsa.Signature
	for i := 0; i < 500; i++ {
		s := pcsa.MustNew(cfg)
		fill(s, uint64(i), 100)
		v, err := arena.Intern(s)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(v.Estimate()) != math.Float64bits(s.Estimate()) {
			t.Fatalf("view %d: estimate %v != original %v", i, v.Estimate(), s.Estimate())
		}
		views = append(views, v)
	}
	if arena.Len() != 500 {
		t.Fatalf("arena.Len() = %d, want 500", arena.Len())
	}
	if arena.Bytes() < 500*64*8 {
		t.Fatalf("arena.Bytes() = %d, too small for %d signatures", arena.Bytes(), arena.Len())
	}
	// Views survive later growth: re-check an early view after 500 inserts.
	got, want := views[0].Estimate(), views[0].Clone().Estimate()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("early view corrupted by growth: %v != %v", got, want)
	}
	// Merging across views works like any signature merge.
	un, err := pcsa.Union(views[0], views[1], views[2])
	if err != nil {
		t.Fatal(err)
	}
	if un.Estimate() <= views[0].Estimate() {
		t.Fatalf("union estimate %v not above member estimate %v", un.Estimate(), views[0].Estimate())
	}

	if !testutil.RaceEnabled {
		// A warm arena (slab already carved) hands out views without touching
		// the heap at all.
		warm, err := pcsa.NewArena(cfg)
		if err != nil {
			t.Fatal(err)
		}
		warm.New() // force the first chunk
		n := testing.AllocsPerRun(50, func() { warm.New() })
		if n > 1 {
			t.Errorf("warm arena New: %v allocs/op, want ≤ 1 (amortized slab growth)", n)
		}
	}
}

// TestArenaChunkGrowthDeep carves enough signatures to cross well past 64
// chunks. The chunk sizer once computed firstChunkSigs << len(chunks) before
// clamping, which overflows int around chunk 57 (~half a million
// signatures) — exactly where the 1M universe preset lands — and panicked in
// makeslice. A narrow config keeps the slab bytes small enough to run in CI.
func TestArenaChunkGrowthDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("deep arena growth is a long test")
	}
	cfg := pcsa.Config{NumMaps: 2}
	arena, err := pcsa.NewArena(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const total = 600_000 // > 57 chunks at the 8192-signature cap
	for i := 0; i < total; i++ {
		arena.New()
	}
	if arena.Len() != total {
		t.Fatalf("arena.Len() = %d, want %d", arena.Len(), total)
	}
	if arena.Bytes() < total*2*8 {
		t.Fatalf("arena.Bytes() = %d, too small for %d signatures", arena.Bytes(), total)
	}
}
