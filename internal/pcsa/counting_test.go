package pcsa

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randomSignatures returns n signatures over disjoint-ish random tuple draws.
func randomSignatures(t *testing.T, r *rand.Rand, cfg Config, n, tuples int) []*Signature {
	t.Helper()
	sigs := make([]*Signature, n)
	for i := range sigs {
		s := MustNew(cfg)
		for j := 0; j < tuples; j++ {
			s.AddUint64(r.Uint64())
		}
		sigs[i] = s
	}
	return sigs
}

// mergeAll re-merges the given members from scratch — the reference the
// counting union must match bit for bit.
func mergeAll(t *testing.T, cfg Config, members []*Signature) float64 {
	t.Helper()
	if len(members) == 0 {
		return 0
	}
	acc := members[0].Clone()
	for _, s := range members[1:] {
		if err := acc.MergeFrom(s); err != nil {
			t.Fatal(err)
		}
	}
	return acc.Estimate()
}

// TestCountingMatchesFullMerge churns random adds and removes through a
// counting union and checks that after every mutation its estimate is
// bit-identical to re-merging the current member multiset from scratch.
func TestCountingMatchesFullMerge(t *testing.T) {
	cfg := Config{NumMaps: 64}
	r := rand.New(rand.NewSource(5))
	sigs := randomSignatures(t, r, cfg, 12, 4000)

	c := MustNewCounting(cfg)
	var members []*Signature
	for step := 0; step < 400; step++ {
		if len(members) > 0 && r.Intn(3) == 0 {
			i := r.Intn(len(members))
			if err := c.Remove(members[i]); err != nil {
				t.Fatalf("step %d: remove: %v", step, err)
			}
			members = append(members[:i], members[i+1:]...)
		} else {
			s := sigs[r.Intn(len(sigs))]
			if err := c.Add(s); err != nil {
				t.Fatalf("step %d: add: %v", step, err)
			}
			members = append(members, s)
		}
		want := mergeAll(t, cfg, members)
		if got := c.Estimate(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d (%d members): counting estimate %v != full merge %v",
				step, len(members), got, want)
		}
		if c.Members() != len(members) {
			t.Fatalf("step %d: Members() = %d, want %d", step, c.Members(), len(members))
		}
	}
	if c.Saturated() {
		t.Fatal("counting saturated with only 12 distinct members")
	}
}

// TestCountingEstimateDelta checks the fused flip kernel against a scratch
// re-merge of the flipped member set, for add-only, drop-only, and swap
// flips — without mutating the counting union.
func TestCountingEstimateDelta(t *testing.T) {
	cfg := Config{NumMaps: 64}
	r := rand.New(rand.NewSource(9))
	sigs := randomSignatures(t, r, cfg, 8, 3000)
	members := sigs[:5]
	outside := sigs[5:]

	c := MustNewCounting(cfg)
	for _, s := range members {
		if err := c.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Estimate()

	cases := []struct {
		name      string
		add, drop *Signature
		want      func() float64
	}{
		{"add-only", outside[0], nil, func() float64 {
			return mergeAll(t, cfg, append(append([]*Signature(nil), members...), outside[0]))
		}},
		{"drop-only", nil, members[2], func() float64 {
			rest := append(append([]*Signature(nil), members[:2]...), members[3:]...)
			return mergeAll(t, cfg, rest)
		}},
		{"swap", outside[1], members[0], func() float64 {
			rest := append(append([]*Signature(nil), members[1:]...), outside[1])
			return mergeAll(t, cfg, rest)
		}},
		{"no-op", nil, nil, func() float64 { return mergeAll(t, cfg, members) }},
	}
	for _, tc := range cases {
		got, err := c.EstimateDelta(tc.add, tc.drop)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := tc.want(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: EstimateDelta = %v, want %v", tc.name, got, want)
		}
	}
	if after := c.Estimate(); math.Float64bits(after) != math.Float64bits(before) {
		t.Errorf("EstimateDelta mutated the counting union: %v -> %v", before, after)
	}
}

// TestCountingSaturation drives one lane to the 255 ceiling and checks that
// it turns sticky: Saturated reports it, further adds and removes leave the
// lane frozen, and the bitmap bit stays set.
func TestCountingSaturation(t *testing.T) {
	cfg := Config{NumMaps: 64}
	s := MustNew(cfg)
	s.AddUint64(12345) // sets one bit per affected map
	c := MustNewCounting(cfg)
	for i := 0; i < maxCount; i++ {
		if err := c.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Saturated() {
		t.Fatalf("no saturation after %d adds of the same signature", maxCount)
	}
	// Sticky lanes are frozen: removing all members leaves their bits set.
	for i := 0; i < maxCount; i++ {
		if err := c.Remove(s); err != nil {
			t.Fatal(err)
		}
	}
	if c.Members() != 0 {
		t.Fatalf("Members() = %d after removing all", c.Members())
	}
	for i, w := range c.words {
		if w != s.maps[i] {
			t.Errorf("word %d = %#x after removals, want sticky bits %#x", i, w, s.maps[i])
		}
	}
	if !c.Saturated() {
		t.Error("saturation must be permanent until Reset")
	}
	c.Reset()
	if c.Saturated() || c.Estimate() != 0 || c.Members() != 0 {
		t.Error("Reset should clear saturation, estimate, and members")
	}
}

// TestCountingUnderflow: removing a never-added signature errors.
func TestCountingUnderflow(t *testing.T) {
	cfg := Config{NumMaps: 64}
	c := MustNewCounting(cfg)
	s := MustNew(cfg)
	s.AddUint64(777)
	if err := c.Remove(s); err == nil {
		t.Fatal("removing a non-member should error")
	} else if !strings.Contains(err.Error(), "underflow") {
		t.Errorf("error should mention underflow: %v", err)
	}
}

// TestCountingConfigMismatch: mutations and the delta kernel reject
// signatures from a different configuration, naming both parameter sets.
func TestCountingConfigMismatch(t *testing.T) {
	c := MustNewCounting(Config{NumMaps: 64})
	other := MustNew(Config{NumMaps: 128})
	if err := c.Add(other); !errors.Is(err, ErrIncompatible) {
		t.Errorf("Add: want ErrIncompatible, got %v", err)
	}
	if err := c.Remove(other); !errors.Is(err, ErrIncompatible) {
		t.Errorf("Remove: want ErrIncompatible, got %v", err)
	}
	if _, err := c.EstimateDelta(other, nil); !errors.Is(err, ErrIncompatible) {
		t.Errorf("EstimateDelta add side: want ErrIncompatible, got %v", err)
	}
	if _, err := c.EstimateDelta(nil, other); !errors.Is(err, ErrIncompatible) {
		t.Errorf("EstimateDelta drop side: want ErrIncompatible, got %v", err)
	}
}

// TestCountingSizeBytes documents the memory cost: 9 bytes per bucket bit.
func TestCountingSizeBytes(t *testing.T) {
	c := MustNewCounting(Config{NumMaps: 64})
	if got, want := c.SizeBytes(), 64*64+8*64; got != want {
		t.Errorf("SizeBytes = %d, want %d", got, want)
	}
}
