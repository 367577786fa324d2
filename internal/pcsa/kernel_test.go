package pcsa

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestUnionMixedParameters: Union rejects inputs with different parameter
// sets and the diagnostic names both (m, seed) pairs, so a misconfigured
// pipeline is debuggable from the message alone.
func TestUnionMixedParameters(t *testing.T) {
	a := MustNew(Config{NumMaps: 64, Seed: 1})
	b := MustNew(Config{NumMaps: 128, Seed: 2})
	_, err := Union(a, b)
	if !errors.Is(err, ErrIncompatible) {
		t.Fatalf("want ErrIncompatible, got %v", err)
	}
	for _, frag := range []string{"m=64", "seed=1", "m=128", "seed=2"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q should name %s", err, frag)
		}
	}
	// The mismatch must be detected up front, before any merge work: a
	// mismatch in the last position errors just the same.
	c := MustNew(Config{NumMaps: 64, Seed: 1})
	if _, err := Union(a, c, b); !errors.Is(err, ErrIncompatible) {
		t.Errorf("trailing mismatch: want ErrIncompatible, got %v", err)
	}
}

// TestUnionPreSized: the result adopts the first signature's parameters and
// a single-input union is a copy, not an alias.
func TestUnionPreSized(t *testing.T) {
	a := MustNew(Config{NumMaps: 64, Seed: 3})
	a.AddUint64(42)
	u, err := Union(a)
	if err != nil {
		t.Fatal(err)
	}
	if u.Config() != a.Config() {
		t.Errorf("union config %+v != input config %+v", u.Config(), a.Config())
	}
	if math.Float64bits(u.Estimate()) != math.Float64bits(a.Estimate()) {
		t.Errorf("single-input union estimate %v != input %v", u.Estimate(), a.Estimate())
	}
	if &u.maps[0] == &a.maps[0] {
		t.Error("union result aliases its input's backing array")
	}
}

// TestOrWordsKernel exercises the unrolled word-level OR against a scalar
// reference, across lengths that hit every unroll tail.
func TestOrWordsKernel(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 64, 129} {
		dst := make([]uint64, n)
		src := make([]uint64, n)
		want := make([]uint64, n)
		for i := range dst {
			dst[i] = r.Uint64()
			src[i] = r.Uint64()
			want[i] = dst[i] | src[i]
		}
		orWords(dst, src)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("n=%d: word %d = %#x, want %#x", n, i, dst[i], want[i])
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("orWords should panic on mismatched lengths")
		}
	}()
	orWords(make([]uint64, 4), make([]uint64, 5))
}

// TestRhoSumWordsKernel checks the unrolled rho-sum against a scalar
// reference across unroll tails.
func TestRhoSumWordsKernel(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, n := range []int{0, 1, 3, 4, 5, 8, 64, 257} {
		words := make([]uint64, n)
		want := 0
		for i := range words {
			words[i] = r.Uint64()
			w := words[i]
			for b := 0; b < 64; b++ {
				if w&(1<<uint(b)) == 0 {
					break
				}
				want++
			}
		}
		if got := rhoSumWords(words); got != want {
			t.Fatalf("n=%d: rhoSumWords = %d, want %d", n, got, want)
		}
	}
}
