package qef

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"mube/internal/schema"
	"mube/internal/source"
)

// mixedUniverse extends dataUniverse with a coop-mixed source: a signature
// but no usable cardinality, which forces Redundancy onto the cooperative-
// only fallback union (scratch.coop).
func mixedUniverse(t testing.TB) *source.Universe {
	t.Helper()
	u := dataUniverse(t)
	mixed := tupleRange(t, 40000, 90000, "isbn")
	mixed.Cardinality = -1 // signature survives; cardinality withheld
	mustAdd(t, u, mixed)
	return u
}

// evalAll runs the union-backed QEFs on one context and returns their values.
func evalAll(c *Context) [3]float64 {
	return [3]float64{
		Coverage{}.Eval(c),
		Redundancy{}.Eval(c),
		Cardinality{}.Eval(c),
	}
}

// TestScratchReuseStress threads ONE Scratch through 1000 successive
// contexts over random subsets — including coop-mixed subsets that exercise
// both scratch slots — and checks every QEF value is bit-identical to a
// fresh scratchless context. Any cross-candidate state leaking through the
// reused buffers (or the embedded context) would surface as a mismatch.
// Every other context is released after use, which must zero it.
func TestScratchReuseStress(t *testing.T) {
	u := mixedUniverse(t)
	all := u.IDs()
	r := rand.New(rand.NewSource(31))
	sc := &Scratch{}
	sawMixed := false
	for i := 0; i < 1000; i++ {
		n := 1 + r.Intn(len(all))
		perm := r.Perm(len(all))
		sel := make([]schema.SourceID, n)
		for j := 0; j < n; j++ {
			sel[j] = all[perm[j]]
		}
		sortIDs(sel)
		scCtx := NewContextScratch(u, sel, sc)
		fresh := NewContext(u, sel)
		got, want := evalAll(scCtx), evalAll(fresh)
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("iter %d, subset %v, qef %d: scratch %v != fresh %v",
					i, sel, k, got[k], want[k])
			}
		}
		if scCtx.coopMixed {
			sawMixed = true
		}
		if i%2 == 1 {
			sc.Release()
			if sc.ctx.U != nil || sc.ctx.IDs != nil || sc.ctx.statsOnce || sc.ctx.scratch != nil {
				t.Fatalf("iter %d: Release left the context populated", i)
			}
		}
	}
	if !sawMixed {
		t.Fatal("stress never hit the coop-mixed fallback; fixture is wrong")
	}
}

// TestScratchPerWorker mimics the evaluator's worker pool: goroutines share
// the universe (read-only) but each own one Scratch, evaluating concurrently
// under -race. Values must match the scratchless reference.
func TestScratchPerWorker(t *testing.T) {
	u := mixedUniverse(t)
	subsets := [][]schema.SourceID{
		ids(0), ids(0, 1), ids(0, 1, 2), ids(1, 2, 3), ids(0, 4), ids(1, 4),
		ids(0, 1, 2, 3, 4), ids(2, 4), ids(3), ids(0, 2, 4),
	}
	want := make([][3]float64, len(subsets))
	for i, sel := range subsets {
		want[i] = evalAll(NewContext(u, sel))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := &Scratch{}
			for rep := 0; rep < 50; rep++ {
				for i, sel := range subsets {
					got := evalAll(NewContextScratch(u, sel, sc))
					for k := range got {
						if math.Float64bits(got[k]) != math.Float64bits(want[i][k]) {
							t.Errorf("subset %v qef %d: %v != %v", sel, k, got[k], want[i][k])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestPresetUnionStats: a context primed with the stats another context
// computed must evaluate every union-backed QEF bit-identically — including
// the coop-mixed case, where the preset context still derives the
// cooperative-only fallback union itself.
func TestPresetUnionStats(t *testing.T) {
	u := mixedUniverse(t)
	for _, sel := range [][]schema.SourceID{
		ids(0, 1, 2), ids(0, 4), ids(1, 2, 4), ids(3), ids(0, 1, 2, 3, 4),
	} {
		ref := NewContext(u, sel)
		want := evalAll(ref)
		preset := NewContext(u, sel)
		preset.PresetUnionStats(UnionStats{
			UnionEst:  ref.unionEst,
			CoopN:     ref.coopN,
			CoopSum:   ref.coopSum,
			CoopMixed: ref.coopMixed,
		})
		got := evalAll(preset)
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Errorf("subset %v qef %d: preset %v != computed %v", sel, k, got[k], want[k])
			}
		}
	}
}

// sortIDs sorts source IDs in place (insertion sort; tiny n).
func sortIDs(ids []schema.SourceID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
