package pcsa

import (
	"errors"
	"math"
	"math/rand"
	"slices"
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

// unionEstimate is the reference a flip read must match bit for bit: the
// estimate of Union over members, or of an empty signature when there are
// none.
func unionEstimate(t *testing.T, cfg Config, members []*Signature) float64 {
	t.Helper()
	if len(members) == 0 {
		return MustNew(cfg).Estimate()
	}
	u, err := Union(members...)
	if err != nil {
		t.Fatal(err)
	}
	return u.Estimate()
}

// The flip union is the union pcsa.counting_merges counts adds to and reads
// of; its tests are named TestCounting*.

// TestCountingMatchesFullMerge churns random adds and removes through a
// member list. An add is one Add to the flip union; a remove images the
// remaining members again with Reset and one Add each, as a batch with a new
// base does. After every step the union's estimate, its nil/nil flip read,
// must be bit-identical to Union over the current members.
func TestCountingMatchesFullMerge(t *testing.T) {
	cfg := Config{NumMaps: 64}
	r := rand.New(rand.NewSource(5))
	sigs := randomSignatures(t, r, cfg, 12, 4000)
	f, err := NewFlipUnion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var members []*Signature
	for step := 0; step < 400; step++ {
		if len(members) > 0 && r.Intn(3) == 0 {
			i := r.Intn(len(members))
			members = slices.Delete(members, i, i+1)
			f.Reset()
			for _, s := range members {
				if err := f.Add(s); err != nil {
					t.Fatalf("step %d: re-image: %v", step, err)
				}
			}
		} else {
			s := sigs[r.Intn(len(sigs))]
			if err := f.Add(s); err != nil {
				t.Fatalf("step %d: add: %v", step, err)
			}
			members = append(members, s)
		}
		got, err := f.EstimateDelta(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := unionEstimate(t, cfg, members); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d (%d members): flip union estimate %v != Union %v", step, len(members), got, want)
		}
	}
}

// TestCountingEstimateDelta checks the flip read against Union over the
// flipped member set for add-only, drop-only, swap and no-op flips at 1, 64,
// 128 and 256 maps, each shape for every outside signature and every member,
// and that no read mutates the union. The members repeat one signature, so
// some drops clear no bit a repeated member also sets.
func TestCountingEstimateDelta(t *testing.T) {
	for _, maps := range []int{1, 64, 128, 256} {
		cfg := Config{NumMaps: maps}
		r := rand.New(rand.NewSource(9 + int64(maps)))
		sigs := randomSignatures(t, r, cfg, 8, 3000)
		members := append(slices.Clone(sigs[:5]), sigs[1])
		outside := sigs[5:]

		f, err := NewFlipUnion(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range members {
			if err := f.Add(s); err != nil {
				t.Fatal(err)
			}
		}
		words, ones := slices.Clone(f.words), slices.Clone(f.ones)

		type flip struct {
			name      string
			add, drop *Signature
			flipped   []*Signature
		}
		flips := []flip{{"no-op", nil, nil, members}}
		for _, a := range outside {
			flips = append(flips, flip{"add-only", a, nil, append(slices.Clone(members), a)})
		}
		for j, d := range members {
			rest := slices.Delete(slices.Clone(members), j, j+1)
			flips = append(flips, flip{"drop-only", nil, d, rest})
			for _, a := range outside {
				flips = append(flips, flip{"swap", a, d, append(slices.Clone(rest), a)})
			}
		}
		for _, tc := range flips {
			got, err := f.EstimateDelta(tc.add, tc.drop)
			if err != nil {
				t.Fatalf("%d maps, %s: %v", maps, tc.name, err)
			}
			if want := unionEstimate(t, cfg, tc.flipped); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%d maps, %s: EstimateDelta = %v, want %v", maps, tc.name, got, want)
			}
		}
		if !slices.Equal(f.words, words) || !slices.Equal(f.ones, ones) {
			t.Errorf("%d maps: EstimateDelta mutated the flip union", maps)
		}
	}
}

// TestCountingConfigMismatch: Add and both sides of the flip read refuse a
// signature of another configuration with ErrIncompatible, and the refused
// signature leaves the union unchanged.
func TestCountingConfigMismatch(t *testing.T) {
	cfg := Config{NumMaps: 64}
	f, err := NewFlipUnion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range randomSignatures(t, rand.New(rand.NewSource(3)), cfg, 3, 500) {
		if err := f.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	words, ones := slices.Clone(f.words), slices.Clone(f.ones)
	other := MustNew(Config{NumMaps: 128})
	for v := uint64(0); v < 1000; v++ {
		other.AddUint64(v)
	}
	if err := f.Add(other); !errors.Is(err, ErrIncompatible) {
		t.Errorf("Add: want ErrIncompatible, got %v", err)
	}
	if _, err := f.EstimateDelta(other, nil); !errors.Is(err, ErrIncompatible) {
		t.Errorf("EstimateDelta add side: want ErrIncompatible, got %v", err)
	}
	if _, err := f.EstimateDelta(nil, other); !errors.Is(err, ErrIncompatible) {
		t.Errorf("EstimateDelta drop side: want ErrIncompatible, got %v", err)
	}
	if !slices.Equal(f.words, words) || !slices.Equal(f.ones, ones) {
		t.Error("a refused signature changed the union")
	}
}

// TestCountingOnesWord builds seeded random member lists into one flip
// union. The lists are drawn with replacement from six signatures, so most
// repeat one, as a universe's sources may share a signature. After every
// build the ones word must hold exactly the bits one member sets, and
// EstimateDelta's add, drop, swap and nil/nil reads must equal Union over the
// flipped members bit for bit.
func TestCountingOnesWord(t *testing.T) {
	cfg := Config{NumMaps: 64}
	r := rand.New(rand.NewSource(21))
	sigs := randomSignatures(t, r, cfg, 6, 1500)
	f, err := NewFlipUnion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	repeats := 0
	for build := 0; build < 300; build++ {
		members := make([]*Signature, r.Intn(13))
		for i := range members {
			members[i] = sigs[r.Intn(len(sigs))]
		}
		f.Reset()
		seen := map[*Signature]bool{}
		for _, s := range members {
			if err := f.Add(s); err != nil {
				t.Fatalf("build %d: add: %v", build, err)
			}
			seen[s] = true
		}
		if len(seen) < len(members) {
			repeats++
		}

		for i, ones := range f.ones {
			var want uint64
			for b := 0; b < 64; b++ {
				n := 0
				for _, s := range members {
					n += int(s.maps[i] >> b & 1)
				}
				if n == 1 {
					want |= 1 << b
				}
			}
			if ones != want {
				t.Fatalf("build %d (%d members): map %d ones word %#x, bits one member sets %#x", build, len(members), i, ones, want)
			}
		}

		type flip struct {
			name      string
			add, drop *Signature
			flipped   []*Signature
		}
		add := sigs[r.Intn(len(sigs))]
		flips := []flip{
			{"nil/nil", nil, nil, members},
			{"add", add, nil, append(slices.Clone(members), add)},
		}
		if len(members) > 0 {
			j := r.Intn(len(members))
			rest := slices.Delete(slices.Clone(members), j, j+1)
			flips = append(flips,
				flip{"drop", nil, members[j], rest},
				flip{"swap", add, members[j], append(slices.Clone(rest), add)})
		}
		for _, tc := range flips {
			got, err := f.EstimateDelta(tc.add, tc.drop)
			if err != nil {
				t.Fatal(err)
			}
			if want := unionEstimate(t, cfg, tc.flipped); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("build %d (%d members): EstimateDelta %s = %v, Union %v", build, len(members), tc.name, got, want)
			}
		}
	}
	if repeats < 100 {
		t.Fatalf("only %d of 300 member lists repeat a signature; the draw must repeat most", repeats)
	}
}
