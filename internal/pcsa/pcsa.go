// Package pcsa implements Flajolet–Martin Probabilistic Counting with
// Stochastic Averaging (PCSA), the distinct-count synopsis µBE uses to
// estimate the cardinality of unions of data sources without fetching data
// (§4 of the paper).
//
// Each cooperating source computes a small hash signature over its tuples.
// The key property (the paper's observation) is that the bitwise OR of two
// sources' signatures equals the signature of the union of their tuple sets,
// so µBE can estimate |s1 ∪ s2 ∪ …| from cached signatures alone. Signatures
// never disclose tuple values.
package pcsa

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// phi is the Flajolet–Martin magic constant correcting the expectation of
// the bit-pattern observable.
const phi = 0.77351

// kappa parameterizes the small-range bias correction of Scheuermann &
// Mauve: E = (m/phi)·(2^A − 2^(−kappa·A)).
const kappa = 1.75

// Config describes the shape of a signature. All signatures that are merged
// together must share an identical Config (including Seed), since OR-merging
// is only meaningful when tuples hash identically at every source.
type Config struct {
	// NumMaps is the number of bitmaps m used for stochastic averaging.
	// It must be a power of two. More bitmaps → lower variance: the standard
	// error of the estimate is ≈ 0.78/√m.
	NumMaps int
	// Seed perturbs the hash function so independent experiments can use
	// independent hash families.
	Seed uint64
}

// DefaultConfig is the configuration used by µBE: 256 bitmaps of 64 bits,
// i.e. a 2 KiB signature per source, giving ≈5% standard error — consistent
// with the paper's observed worst-case error of 7%.
var DefaultConfig = Config{NumMaps: 256}

// maxNumMaps bounds NumMaps so a hostile configuration cannot size a
// signature, 8 bytes per bitmap, past memory. The PCSA ablation sweeps up to
// 1 024.
const maxNumMaps = 1 << 16

// Validate reports whether c is a usable signature shape: NumMaps must be a
// power of two no larger than 2¹⁶. Readers of persisted universes call it to
// reject a hostile width before anything is sized by it.
func (c Config) Validate() error {
	if c.NumMaps <= 0 || c.NumMaps > maxNumMaps || c.NumMaps&(c.NumMaps-1) != 0 {
		return fmt.Errorf("pcsa: NumMaps must be a power of two in [1, %d], got %d", maxNumMaps, c.NumMaps)
	}
	return nil
}

// Signature is a PCSA synopsis: m bitmaps of 64 bits each. The zero value is
// not usable; construct with New.
type Signature struct {
	cfg Config
	// mix is splitmix64(cfg.Seed), the seed term of every tuple's hash; it
	// is set wherever cfg is, so AddUint64 mixes each tuple once.
	mix  uint64
	maps []uint64
}

// New returns an empty signature with the given configuration.
func New(cfg Config) (*Signature, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Signature{cfg: cfg, mix: splitmix64(cfg.Seed), maps: make([]uint64, cfg.NumMaps)}, nil
}

// MustNew is New that panics on an invalid configuration; intended for
// package-level defaults and tests.
func MustNew(cfg Config) *Signature {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the signature's configuration.
func (s *Signature) Config() Config { return s.cfg }

// splitmix64 is the SplitMix64 finalizer, a high-quality 64-bit mixer used
// as the hash function for integer tuple IDs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// AddUint64 records one tuple identified by x.
func (s *Signature) AddUint64(x uint64) {
	h := splitmix64(x ^ s.mix)
	m := uint64(s.cfg.NumMaps)
	idx := h & (m - 1)
	rest := h >> uint(bits.TrailingZeros64(m)) // remaining hash bits
	// rho = position of the least-significant 1-bit of rest.
	r := bits.TrailingZeros64(rest)
	if r > 63 {
		r = 63
	}
	s.maps[idx] |= 1 << uint(r)
}

// AddBytes records one tuple identified by its byte representation, using
// FNV-1a to fold the bytes into 64 bits first.
func (s *Signature) AddBytes(b []byte) {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var h uint64 = offset
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	s.AddUint64(h)
}

// AddString records one tuple identified by its string representation.
func (s *Signature) AddString(t string) {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var h uint64 = offset
	for i := 0; i < len(t); i++ {
		h ^= uint64(t[i])
		h *= prime
	}
	s.AddUint64(h)
}

// Estimate returns the estimated number of distinct tuples recorded.
func (s *Signature) Estimate() float64 {
	return estimateRhoSum(s.cfg, rhoSumWords(s.maps))
}

// rhoSumWords computes Σ over bitmaps of R, where R is the index of the
// least significant zero bit — the PCSA observable. FlipUnion.EstimateDelta
// folds the same integer sum into its flip loop, so equal bitmaps give equal
// sums on every path.
func rhoSumWords(words []uint64) int {
	sum := 0
	i := 0
	// Unrolled 4-wide: the loop is the innermost read of every estimate.
	for ; i+4 <= len(words); i += 4 {
		sum += bits.TrailingZeros64(^words[i]) +
			bits.TrailingZeros64(^words[i+1]) +
			bits.TrailingZeros64(^words[i+2]) +
			bits.TrailingZeros64(^words[i+3])
	}
	for ; i < len(words); i++ {
		sum += bits.TrailingZeros64(^words[i])
	}
	return sum
}

// estimateRhoSum turns the summed observable into a cardinality estimate.
// Given identical rho sums it returns bit-identical floats, which is what
// lets FlipUnion.EstimateDelta reproduce the full-merge estimate exactly.
func estimateRhoSum(cfg Config, sum int) float64 {
	m := float64(cfg.NumMaps)
	a := float64(sum) / m
	est := m / phi * (math.Exp2(a) - math.Exp2(-kappa*a))
	if est < 0 {
		est = 0
	}
	return est
}

// orWords ORs src into dst word by word; the slices must be the same length
// (enforced by the uniform-config checks of every caller). The 4-wide unroll
// with a single up-front bounds check is the merge kernel under every
// signature union.
func orWords(dst, src []uint64) {
	if len(dst) != len(src) {
		panic("pcsa: orWords length mismatch")
	}
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] |= src[i]
		dst[i+1] |= src[i+1]
		dst[i+2] |= src[i+2]
		dst[i+3] |= src[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] |= src[i]
	}
}

// Empty reports whether no tuple has been recorded.
func (s *Signature) Empty() bool {
	for _, bm := range s.maps {
		if bm != 0 {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the signature.
func (s *Signature) Clone() *Signature {
	c := &Signature{cfg: s.cfg, mix: s.mix, maps: make([]uint64, len(s.maps))}
	copy(c.maps, s.maps)
	return c
}

// Reset clears all bitmaps, returning s to the empty state while keeping its
// configuration and backing storage. It lets hot paths (µBE's objective
// evaluator computes one union per candidate subset) reuse one scratch
// signature instead of allocating a fresh one per union.
func (s *Signature) Reset() {
	for i := range s.maps {
		s.maps[i] = 0
	}
}

// CopyFrom overwrites s with o's contents, adopting o's configuration. The
// backing storage is reused when the bitmap counts match.
func (s *Signature) CopyFrom(o *Signature) {
	if len(s.maps) != len(o.maps) {
		s.maps = make([]uint64, len(o.maps))
	}
	s.cfg, s.mix = o.cfg, o.mix
	copy(s.maps, o.maps)
}

// ErrIncompatible is returned when merging signatures with different
// configurations.
var ErrIncompatible = errors.New("pcsa: incompatible signature configurations")

// MergeFrom ORs o into s, making s the signature of the union of the two
// recorded tuple sets.
func (s *Signature) MergeFrom(o *Signature) error {
	if s.cfg != o.cfg {
		return ErrIncompatible
	}
	orWords(s.maps, o.maps)
	return nil
}

// configMismatch builds the diagnostic for merging signatures of different
// shapes, naming both parameter sets; it wraps ErrIncompatible so existing
// errors.Is checks keep working.
func configMismatch(a, b Config) error {
	return fmt.Errorf("pcsa: mixed signature parameters (m=%d, seed=%d) vs (m=%d, seed=%d): %w",
		a.NumMaps, a.Seed, b.NumMaps, b.Seed, ErrIncompatible)
}

// Union returns a new signature representing the union of all the given
// signatures. At least one signature is required; all signatures must share
// one parameter set (the error names the mismatched pair otherwise). The
// result is pre-sized from the first signature's parameters and merged with
// the word-level kernel.
func Union(sigs ...*Signature) (*Signature, error) {
	if len(sigs) == 0 {
		return nil, errors.New("pcsa: Union of zero signatures")
	}
	first := sigs[0]
	for _, o := range sigs[1:] {
		if o.cfg != first.cfg {
			return nil, configMismatch(first.cfg, o.cfg)
		}
	}
	out := &Signature{cfg: first.cfg, mix: first.mix, maps: make([]uint64, len(first.maps))}
	copy(out.maps, first.maps)
	for _, o := range sigs[1:] {
		orWords(out.maps, o.maps)
	}
	return out, nil
}

// magic identifies the binary encoding of a signature.
const magic = 0x50435341 // "PCSA"

// MarshalBinary encodes the signature for caching or transmission.
func (s *Signature) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(make([]byte, 0, s.EncodedSize()))
}

// EncodedSize returns the length of the signature's binary encoding, letting
// callers size an AppendBinary buffer exactly.
func (s *Signature) EncodedSize() int { return 4 + 4 + 8 + 1 + 8*len(s.maps) }

// AppendBinary appends the signature's binary encoding to buf and returns the
// extended slice. Serializing a whole universe through one reused buffer this
// way costs zero allocations per signature, where MarshalBinary costs one.
func (s *Signature) AppendBinary(buf []byte) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint32(buf, magic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.cfg.NumMaps))
	buf = binary.LittleEndian.AppendUint64(buf, s.cfg.Seed)
	buf = append(buf, 0) // reserved flag byte
	for _, bm := range s.maps {
		buf = binary.LittleEndian.AppendUint64(buf, bm)
	}
	return buf, nil
}

// UnmarshalBinary decodes a signature produced by MarshalBinary.
func (s *Signature) UnmarshalBinary(data []byte) error {
	if len(data) < 17 {
		return errors.New("pcsa: truncated signature")
	}
	if binary.LittleEndian.Uint32(data[0:]) != magic {
		return errors.New("pcsa: bad magic")
	}
	if data[16] != 0 {
		return fmt.Errorf("pcsa: unknown signature flags %#x", data[16])
	}
	n := int(binary.LittleEndian.Uint32(data[4:]))
	cfg := Config{NumMaps: n, Seed: binary.LittleEndian.Uint64(data[8:])}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(data) != 17+8*n {
		return fmt.Errorf("pcsa: signature length %d does not match %d maps", len(data), n)
	}
	maps := make([]uint64, n)
	for i := range maps {
		maps[i] = binary.LittleEndian.Uint64(data[17+8*i:])
	}
	s.cfg, s.mix = cfg, splitmix64(cfg.Seed)
	s.maps = maps
	return nil
}

// SizeBytes returns the in-memory size of the signature's bitmaps. The paper
// notes signatures are "a few bytes or kilobytes"; DefaultConfig is 2 KiB.
func (s *Signature) SizeBytes() int { return 8 * len(s.maps) }

// ExactCounter is the exact-counting oracle used in tests and in the PCSA
// accuracy experiment (§7.3 reports ≤7% worst-case error vs exact counting).
// It simply remembers every distinct tuple ID.
type ExactCounter struct {
	set map[uint64]struct{}
}

// NewExact returns an empty exact counter.
func NewExact() *ExactCounter { return &ExactCounter{set: make(map[uint64]struct{})} }

// AddUint64 records a tuple.
func (e *ExactCounter) AddUint64(x uint64) { e.set[x] = struct{}{} }

// Count returns the exact number of distinct tuples recorded.
func (e *ExactCounter) Count() int { return len(e.set) }

// MergeFrom adds all tuples of o into e.
func (e *ExactCounter) MergeFrom(o *ExactCounter) {
	for x := range o.set {
		e.set[x] = struct{}{}
	}
}
