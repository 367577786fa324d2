package pcsa

import (
	"errors"
	"math"
	"math/rand"
	"slices"
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

// TestCountingDeepLanes stacks one signature far past the 255 a byte lane
// could count, beside a second member, then peels the copies off one by one:
// after every Remove, Estimate and the drop side of EstimateDelta must stay
// bit-identical to a fresh merge, and once every copy is gone the implied
// bitmap must be exactly the second member's. Reset then empties it.
func TestCountingDeepLanes(t *testing.T) {
	cfg := Config{NumMaps: 64}
	sigs := randomSignatures(t, rand.New(rand.NewSource(3)), cfg, 2, 2000)
	deep, other := sigs[0], sigs[1]
	const copies = 300
	c := MustNewCounting(cfg)
	if err := c.Add(other); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < copies; i++ {
		if err := c.Add(deep); err != nil {
			t.Fatal(err)
		}
	}
	members := []*Signature{other}
	for i := 0; i < copies; i++ {
		members = append(members, deep)
	}
	for k := copies; k > 0; k-- {
		if err := c.Remove(deep); err != nil {
			t.Fatalf("remove with %d copies left: %v", k, err)
		}
		members = members[:len(members)-1]
		want := mergeAll(t, cfg, members)
		if got := c.Estimate(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d copies left: Estimate %v != full merge %v", k-1, got, want)
		}
		if k == 1 {
			break // deep is no longer a member; EstimateDelta needs one
		}
		got, err := c.EstimateDelta(nil, deep)
		if err != nil {
			t.Fatal(err)
		}
		if want := mergeAll(t, cfg, members[:len(members)-1]); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d copies left: EstimateDelta(nil, deep) %v != full merge %v", k-1, got, want)
		}
	}
	if c.Members() != 1 {
		t.Fatalf("Members() = %d after removing every copy, want 1", c.Members())
	}
	for i, w := range c.words {
		if w != other.maps[i] {
			t.Errorf("word %d = %#x after removals, want the other member's %#x", i, w, other.maps[i])
		}
	}
	c.Reset()
	if c.Estimate() != 0 || c.Members() != 0 || slices.ContainsFunc(c.counts, func(n uint32) bool { return n != 0 }) ||
		slices.ContainsFunc(c.ones, func(w uint64) bool { return w != 0 }) {
		t.Error("Reset should clear every lane, the ones word, the estimate and the members")
	}
}

// TestCountingAddRefusesPastMaxUint32: at math.MaxUint32 members a lane
// could overflow, so Add errors and leaves counts, words, ones and n
// untouched.
func TestCountingAddRefusesPastMaxUint32(t *testing.T) {
	cfg := Config{NumMaps: 64}
	s := MustNew(cfg)
	s.AddUint64(12345)
	c := MustNewCounting(cfg)
	if err := c.Add(s); err != nil {
		t.Fatal(err)
	}
	c.n = math.MaxUint32
	counts := append([]uint32(nil), c.counts...)
	words := append([]uint64(nil), c.words...)
	ones := append([]uint64(nil), c.ones...)
	if err := c.Add(s); err == nil {
		t.Fatal("Add past math.MaxUint32 members succeeded")
	}
	if c.n != math.MaxUint32 || !slices.Equal(c.counts, counts) || !slices.Equal(c.words, words) || !slices.Equal(c.ones, ones) {
		t.Error("refused Add mutated the counting union")
	}
}

// TestCountingUnderflow: removing a never-added signature errors, whether one
// of its bits finds an empty lane or the union has no member left to remove
// (an all-zero signature touches no lane), and the member count stays put.
func TestCountingUnderflow(t *testing.T) {
	cfg := Config{NumMaps: 64}
	s := MustNew(cfg)
	s.AddUint64(777)
	empty := MustNew(cfg)
	for _, tc := range []struct {
		name    string
		members []*Signature
		remove  *Signature
	}{
		{"empty union", nil, s},
		{"empty union, empty signature", nil, empty},
		{"empty lane", []*Signature{empty}, s},
	} {
		c := MustNewCounting(cfg)
		for _, m := range tc.members {
			if err := c.Add(m); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Remove(tc.remove); err == nil || !strings.Contains(err.Error(), "underflow") {
			t.Errorf("%s: Remove = %v, want an underflow error", tc.name, err)
		}
		if c.Members() != len(tc.members) {
			t.Errorf("%s: Members() = %d after a failed Remove, want %d", tc.name, c.Members(), len(tc.members))
		}
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

// TestCountingOnesWord drives seeded random Add/Remove/Reset sequences
// through a counting union, ramping the member multiset up and down so lanes
// pass 255 and fall back to 0. After every step a map's ones bit must be set
// exactly where its lane reads 1, and EstimateDelta's add, drop and swap
// reads must equal a from-scratch merge of the flipped member set, bit for
// bit.
func TestCountingOnesWord(t *testing.T) {
	cfg := Config{NumMaps: 64}
	r := rand.New(rand.NewSource(21))
	sigs := randomSignatures(t, r, cfg, 6, 1500)
	c := MustNewCounting(cfg)
	var members []*Signature
	deepest := uint32(0)
	for step := 0; step < 3000; step++ {
		pAdd := 0.8 // ramp up for 600 steps, then down for 600
		if (step/600)%2 == 1 {
			pAdd = 0.2
		}
		switch {
		case r.Intn(1000) == 0:
			c.Reset()
			members = members[:0]
		case len(members) > 0 && r.Float64() >= pAdd:
			i := r.Intn(len(members))
			if err := c.Remove(members[i]); err != nil {
				t.Fatalf("step %d: remove: %v", step, err)
			}
			members = append(members[:i], members[i+1:]...)
		default:
			s := sigs[r.Intn(len(sigs))]
			if err := c.Add(s); err != nil {
				t.Fatalf("step %d: add: %v", step, err)
			}
			members = append(members, s)
		}
		for i, ones := range c.ones {
			var want uint64
			for b, n := range c.counts[i<<6 : (i+1)<<6] {
				if n == 1 {
					want |= 1 << uint(b)
				}
				deepest = max(deepest, n)
			}
			if ones != want {
				t.Fatalf("step %d (%d members): map %d ones word %#x, lanes reading 1 %#x", step, len(members), i, ones, want)
			}
		}
		add := sigs[r.Intn(len(sigs))]
		var drop *Signature
		rest := members
		if len(members) > 0 {
			j := r.Intn(len(members))
			drop = members[j]
			rest = append(append([]*Signature(nil), members[:j]...), members[j+1:]...)
		}
		for _, tc := range []struct {
			name      string
			add, drop *Signature
			flipped   []*Signature
		}{
			{"add", add, nil, append(append([]*Signature(nil), members...), add)},
			{"drop", nil, drop, rest},
			{"swap", add, drop, append(append([]*Signature(nil), rest...), add)},
		} {
			if tc.name != "add" && drop == nil {
				continue
			}
			got, err := c.EstimateDelta(tc.add, tc.drop)
			if err != nil {
				t.Fatal(err)
			}
			if want := mergeAll(t, cfg, tc.flipped); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d (%d members): EstimateDelta %s = %v, full merge %v", step, len(members), tc.name, got, want)
			}
		}
	}
	if deepest <= 255 {
		t.Fatalf("deepest lane reached %d; the sequence must drive lanes past 255", deepest)
	}
}
