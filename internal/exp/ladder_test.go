package exp

import (
	"fmt"
	"math"
	"testing"

	"mube/internal/telemetry"
)

// TestPartitionedRefinePinned pins the partitioned solve of the reduced 10k
// ladder rung, the one `mube-bench -universe 10k -smoke` runs: its solution,
// the bits of its Q, its evaluations and the number of moves the cross-group
// refinement accepted. No other test notices a change to what the
// refinement samples or accepts, as long as Q does not fall below the merged
// union; this one fails on any such change. A deliberate change to the
// solver regenerates the literals and says why in the same change.
func TestPartitionedRefinePinned(t *testing.T) {
	p, err := ScalePresetByName("10k")
	if err != nil {
		t.Fatal(err)
	}
	l, err := newLadder(p.Reduced())
	if err != nil {
		t.Fatal(err)
	}
	if l.groups < 2 {
		t.Fatalf("%d source groups; the pin needs a partitioned solve", l.groups)
	}
	sink := &telemetry.MemorySink{}
	sol, _, err := l.solve(1, 1, telemetry.New(sink))
	if err != nil {
		t.Fatal(err)
	}
	accepted := int64(-1)
	for _, ev := range sink.Events() {
		if ev.Name != "partition.refine.end" {
			continue
		}
		if v, ok := ev.Attr("accepted"); ok {
			accepted = v.(int64)
		}
	}
	const (
		wantIDs = "[140 757 1040 2055 2291 2583 2604 2690 2913 2961 3712 3933 4020 4847 4881 4912 5592 5875 5999 " +
			"6390 6567 7350 7401 7482 7556 7781 7860 8073 8396 8645 8811 9155 9182 9451 9726 9754 9762]"
		wantQBits    = 0x3fe1599de619618d // 0.5421895498393937
		wantEvals    = 1419
		wantAccepted = 2
	)
	if got := fmt.Sprint(sol.IDs); got != wantIDs {
		t.Errorf("IDs = %s, want %s", got, wantIDs)
	}
	if got := math.Float64bits(sol.Quality); got != wantQBits {
		t.Errorf("Q = %v (bits %#x), want bits %#x", sol.Quality, got, uint64(wantQBits))
	}
	if sol.Evals != wantEvals {
		t.Errorf("evals = %d, want %d", sol.Evals, wantEvals)
	}
	if accepted != wantAccepted {
		t.Errorf("refinement accepted %d moves, want %d", accepted, wantAccepted)
	}
}
