package pcsa

import (
	"bytes"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"mube/internal/testutil/approx"
)

func TestConfigValidate(t *testing.T) {
	bad := []int{0, -1, 3, 5, 100, 1 << 17, 1 << 40}
	for _, n := range bad {
		if _, err := New(Config{NumMaps: n}); err == nil {
			t.Errorf("NumMaps=%d should be rejected", n)
		}
	}
	for _, n := range []int{1, 2, 64, 256, 1024} {
		if _, err := New(Config{NumMaps: n}); err != nil {
			t.Errorf("NumMaps=%d should be accepted: %v", n, err)
		}
	}
}

func TestEstimateAccuracy(t *testing.T) {
	// With m=256 the standard error is ≈5%; require <10% on these sizes.
	r := rand.New(rand.NewSource(42))
	for _, n := range []int{10000, 50000, 200000, 1000000} {
		s := MustNew(DefaultConfig)
		for i := 0; i < n; i++ {
			s.AddUint64(r.Uint64())
		}
		est := s.Estimate()
		relErr := math.Abs(est-float64(n)) / float64(n)
		if relErr > 0.10 {
			t.Errorf("n=%d: estimate %.0f, relative error %.1f%% > 10%%", n, est, 100*relErr)
		}
	}
}

func TestEstimateSmallRange(t *testing.T) {
	// Small-range correction keeps modest cardinalities usable.
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{500, 1000, 4000} {
		s := MustNew(DefaultConfig)
		for i := 0; i < n; i++ {
			s.AddUint64(r.Uint64())
		}
		est := s.Estimate()
		relErr := math.Abs(est-float64(n)) / float64(n)
		if relErr > 0.25 {
			t.Errorf("n=%d: estimate %.0f, relative error %.1f%% > 25%%", n, est, 100*relErr)
		}
	}
}

func TestEmptyEstimate(t *testing.T) {
	s := MustNew(DefaultConfig)
	if !s.Empty() {
		t.Error("fresh signature should be Empty")
	}
	if est := s.Estimate(); est != 0 {
		t.Errorf("empty estimate = %v, want 0", est)
	}
	s.AddUint64(1)
	if s.Empty() {
		t.Error("signature with one tuple should not be Empty")
	}
}

func TestDuplicatesDoNotInflate(t *testing.T) {
	s := MustNew(Config{NumMaps: 64})
	for i := 0; i < 100; i++ {
		for j := 0; j < 50; j++ {
			s.AddUint64(uint64(j)) // 50 distinct values added 100 times
		}
	}
	one := MustNew(Config{NumMaps: 64})
	for j := 0; j < 50; j++ {
		one.AddUint64(uint64(j))
	}
	if !approx.AlmostEqual(s.Estimate(), one.Estimate()) {
		t.Errorf("duplicates changed estimate: %v vs %v", s.Estimate(), one.Estimate())
	}
}

func TestUnionEqualsCombinedSignature(t *testing.T) {
	// The paper's key observation: OR of per-source signatures equals the
	// signature of the union of tuples.
	r := rand.New(rand.NewSource(3))
	a := MustNew(DefaultConfig)
	b := MustNew(DefaultConfig)
	all := MustNew(DefaultConfig)
	for i := 0; i < 20000; i++ {
		x := r.Uint64()
		a.AddUint64(x)
		all.AddUint64(x)
	}
	for i := 0; i < 30000; i++ {
		x := r.Uint64()
		b.AddUint64(x)
		all.AddUint64(x)
	}
	u, err := Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !approx.AlmostEqual(u.Estimate(), all.Estimate()) {
		t.Errorf("union estimate %v != combined estimate %v", u.Estimate(), all.Estimate())
	}
}

func TestUnionWithOverlapCountsDistinct(t *testing.T) {
	a := MustNew(DefaultConfig)
	b := MustNew(DefaultConfig)
	r := rand.New(rand.NewSource(11))
	shared := make([]uint64, 30000)
	for i := range shared {
		shared[i] = r.Uint64()
	}
	for _, x := range shared {
		a.AddUint64(x)
		b.AddUint64(x) // b holds exactly the same tuples
	}
	u, _ := Union(a, b)
	est := u.Estimate()
	relErr := math.Abs(est-30000) / 30000
	if relErr > 0.10 {
		t.Errorf("overlapping union: estimate %.0f for 30000 distinct (err %.1f%%)", est, 100*relErr)
	}
}

func TestMergeIncompatible(t *testing.T) {
	a := MustNew(Config{NumMaps: 64})
	b := MustNew(Config{NumMaps: 128})
	if err := a.MergeFrom(b); err != ErrIncompatible {
		t.Errorf("expected ErrIncompatible, got %v", err)
	}
	c := MustNew(Config{NumMaps: 64, Seed: 9})
	if err := a.MergeFrom(c); err != ErrIncompatible {
		t.Errorf("different seeds must be incompatible, got %v", err)
	}
	if _, err := Union(); err == nil {
		t.Error("Union of nothing should error")
	}
}

func TestMergeProperties(t *testing.T) {
	// OR-merge is commutative, associative, and idempotent bit for bit: the
	// merged words (their binary encoding) and the estimates' float64 bits
	// agree exactly.
	mk := func(seed int64, n int) *Signature {
		s := MustNew(Config{NumMaps: 64})
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			s.AddUint64(r.Uint64())
		}
		return s
	}
	union := func(sigs ...*Signature) *Signature {
		u, err := Union(sigs...)
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	same := func(a, b *Signature) bool {
		ab, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		bb, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Equal(ab, bb) && math.Float64bits(a.Estimate()) == math.Float64bits(b.Estimate())
	}
	prop := func(sa, sb, sc int64) bool {
		a, b, c := mk(sa, 500), mk(sb, 700), mk(sc, 300)
		return same(union(a, b), union(b, a)) &&
			same(union(union(a, b), c), union(a, union(b, c))) &&
			same(union(a, a), a)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestAddBytesAndString(t *testing.T) {
	a := MustNew(Config{NumMaps: 64})
	b := MustNew(Config{NumMaps: 64})
	a.AddBytes([]byte("hello world"))
	b.AddString("hello world")
	if !approx.AlmostEqual(a.Estimate(), b.Estimate()) {
		t.Error("AddBytes and AddString of same content should agree")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	s := MustNew(Config{NumMaps: 128, Seed: 5})
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		s.AddUint64(r.Uint64())
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Signature
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !approx.AlmostEqual(back.Estimate(), s.Estimate()) {
		t.Errorf("round-trip estimate %v != %v", back.Estimate(), s.Estimate())
	}
	if back.Config() != s.Config() {
		t.Errorf("round-trip config %+v != %+v", back.Config(), s.Config())
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var s Signature
	if err := s.UnmarshalBinary(nil); err == nil {
		t.Error("nil data should fail")
	}
	if err := s.UnmarshalBinary(make([]byte, 17)); err == nil {
		t.Error("bad magic should fail")
	}
	good, _ := MustNew(Config{NumMaps: 64}).MarshalBinary()
	if err := s.UnmarshalBinary(good[:len(good)-8]); err == nil {
		t.Error("truncated maps should fail")
	}
	// Byte 16 is a reserved flag byte that the encoder always writes as 0.
	for _, flag := range []byte{1, 2, 255} {
		bad := append([]byte(nil), good...)
		bad[16] = flag
		if err := s.UnmarshalBinary(bad); err == nil {
			t.Errorf("flag byte %d should fail", flag)
		}
	}
}

func TestExactCounter(t *testing.T) {
	e := NewExact()
	for i := 0; i < 100; i++ {
		e.AddUint64(uint64(i % 10))
	}
	if e.Count() != 10 {
		t.Errorf("Count = %d, want 10", e.Count())
	}
	o := NewExact()
	o.AddUint64(999)
	e.MergeFrom(o)
	if e.Count() != 11 {
		t.Errorf("after merge Count = %d, want 11", e.Count())
	}
}

func TestSizeBytes(t *testing.T) {
	if got := MustNew(DefaultConfig).SizeBytes(); got != 2048 {
		t.Errorf("DefaultConfig signature = %d bytes, want 2048", got)
	}
}

// TestSignatureConstructorsHashAlike pins the seed mix a signature stores
// beside its config: however a signature comes to hold a nonzero Seed — New,
// Clone, CopyFrom over another config, Union or a binary round trip — it
// must hash tuples exactly as one built with New, and New must hash them as
// splitmix64(x ^ splitmix64(Seed)).
func TestSignatureConstructorsHashAlike(t *testing.T) {
	cfg := Config{NumMaps: 64, Seed: 0x5eed_cafe}
	tuples := make([]uint64, 5000)
	r := rand.New(rand.NewSource(3))
	for i := range tuples {
		tuples[i] = r.Uint64()
	}

	want := make([]uint64, cfg.NumMaps)
	idxBits := bits.TrailingZeros64(uint64(cfg.NumMaps))
	for _, x := range tuples {
		h := splitmix64(x ^ splitmix64(cfg.Seed))
		want[h&uint64(cfg.NumMaps-1)] |= 1 << uint(min(bits.TrailingZeros64(h>>idxBits), 63))
	}

	copied := MustNew(Config{NumMaps: 16, Seed: 9})
	copied.CopyFrom(MustNew(cfg))
	union, err := Union(MustNew(cfg), MustNew(cfg))
	if err != nil {
		t.Fatal(err)
	}
	data, err := MustNew(cfg).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var decoded Signature
	if err := decoded.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	built := []struct {
		how string
		sig *Signature
	}{
		{"New", MustNew(cfg)},
		{"Clone", MustNew(cfg).Clone()},
		{"CopyFrom", copied},
		{"Union", union},
		{"UnmarshalBinary", &decoded},
	}
	for _, b := range built {
		for _, x := range tuples {
			b.sig.AddUint64(x)
		}
		if b.sig.Config() != cfg {
			t.Errorf("%s: config %+v, want %+v", b.how, b.sig.Config(), cfg)
		}
		for i, w := range b.sig.maps {
			if w != want[i] {
				t.Errorf("%s: map %d = %#x, want %#x", b.how, i, w, want[i])
				break
			}
		}
	}
}
