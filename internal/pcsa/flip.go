package pcsa

import "math/bits"

// FlipUnion is the OR of a set of member signatures together with the bits
// exactly one member sets: the two words per map that the flip read
// EstimateDelta needs. It cannot subtract a member; a new member set is
// imaged again with Reset and one Add per member. At 128 maps a union takes
// 2 KiB.
//
// A FlipUnion is not safe for concurrent mutation; concurrent EstimateDelta
// calls are safe once the mutations have happened-before them.
type FlipUnion struct {
	cfg   Config
	words []uint64 // the OR of the members' bitmaps
	// ones has a bit set exactly where one member sets it: the bits that
	// dropping that member clears.
	ones []uint64
}

// NewFlipUnion returns an empty flip union with the given configuration.
func NewFlipUnion(cfg Config) (*FlipUnion, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &FlipUnion{cfg: cfg, words: make([]uint64, cfg.NumMaps), ones: make([]uint64, cfg.NumMaps)}, nil
}

// Reset empties f, keeping its configuration and storage.
func (f *FlipUnion) Reset() {
	clear(f.words)
	clear(f.ones)
}

// Add includes one member signature. The bits of s enter the ones word where
// no member set them before and leave it where one member did, so a member
// added twice owns none of its bits alone.
func (f *FlipUnion) Add(s *Signature) error {
	if s.cfg != f.cfg {
		return configMismatch(f.cfg, s.cfg)
	}
	words, ones := f.words[:len(s.maps)], f.ones[:len(s.maps)]
	for i, w := range s.maps {
		ones[i] = ones[i]&^w | w&^words[i]
		words[i] |= w
	}
	return nil
}

// EstimateDelta returns the estimate of the union with add included and drop
// excluded, without mutating f: the read kernel behind single-source
// neighborhood flips. Either signature may be nil; drop must be a member.
// Dropping clears exactly the bits drop owns alone (drop & ones), so the
// flipped bitmap is the OR of the flipped member set, and the estimate goes
// through the rho-sum kernel of every other union: bit-identical to merging
// the flipped members from scratch.
//
// Each flip shape has its own loop over slices cut to the map count, so no
// loop branches on the shape or checks a bound per word.
func (f *FlipUnion) EstimateDelta(add, drop *Signature) (float64, error) {
	if add != nil && add.cfg != f.cfg {
		return 0, configMismatch(f.cfg, add.cfg)
	}
	if drop != nil && drop.cfg != f.cfg {
		return 0, configMismatch(f.cfg, drop.cfg)
	}
	words := f.words
	sum := 0
	switch {
	case add != nil && drop != nil:
		ones, am, dm := f.ones[:len(words)], add.maps[:len(words)], drop.maps[:len(words)]
		for i, w := range words {
			sum += bits.TrailingZeros64(^(w&^(dm[i]&ones[i]) | am[i]))
		}
	case add != nil:
		am := add.maps[:len(words)]
		for i, w := range words {
			sum += bits.TrailingZeros64(^(w | am[i]))
		}
	case drop != nil:
		ones, dm := f.ones[:len(words)], drop.maps[:len(words)]
		for i, w := range words {
			sum += bits.TrailingZeros64(^(w &^ (dm[i] & ones[i])))
		}
	default:
		for _, w := range words {
			sum += bits.TrailingZeros64(^w)
		}
	}
	return estimateRhoSum(f.cfg, sum), nil
}
