package pcsa

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Counting is a subtractable PCSA union: for every bucket bit of the
// underlying bitmaps it keeps a uint32 reference count of how many member
// signatures set that bit. Adding a member increments, removing one
// decrements, and the implied bitmap (bit set ⇔ count > 0) is exactly the OR
// of the current members' bitmaps — so Estimate returns a float bit-identical
// to merging the members from scratch, after any sequence of adds and
// removes.
//
// No lane can exceed Members(), and Add refuses a member past
// math.MaxUint32, so lanes never overflow and every count stays exact. The
// lanes cost 4 bytes per bucket bit; with the implied bitmap and the
// "count is exactly 1" word beside it a union takes 34 KiB at 128 maps.
//
// A Counting is not safe for concurrent mutation; concurrent read-only use
// (Estimate, EstimateDelta) is safe once mutations have happened-before it.
type Counting struct {
	cfg    Config
	counts []uint32 // NumMaps*64 per-bucket-bit reference counts
	words  []uint64 // implied bitmap, maintained incrementally
	// ones has a bit set exactly where the lane reads 1: the bits one member
	// owns alone, which dropping that member clears. Add and Remove keep it
	// at the 0↔1 and 1↔2 lane transitions, so EstimateDelta reads no lanes.
	ones []uint64
	n    uint32 // member signatures currently included
}

// NewCounting returns an empty counting union with the given configuration.
func NewCounting(cfg Config) (*Counting, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Counting{
		cfg:    cfg,
		counts: make([]uint32, cfg.NumMaps*64),
		words:  make([]uint64, cfg.NumMaps),
		ones:   make([]uint64, cfg.NumMaps),
	}, nil
}

// MustNewCounting is NewCounting that panics on an invalid configuration.
func MustNewCounting(cfg Config) *Counting {
	c, err := NewCounting(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Members returns the number of signatures currently included.
func (c *Counting) Members() int { return int(c.n) }

// Reset clears all counts, returning c to the empty state while keeping its
// configuration and backing storage.
func (c *Counting) Reset() {
	clear(c.counts)
	clear(c.words)
	clear(c.ones)
	c.n = 0
}

// Add includes one member signature: every bit set in s increments its lane.
// It refuses, leaving c unchanged, a member beyond math.MaxUint32, the most
// any lane can count.
func (c *Counting) Add(s *Signature) error {
	if s.cfg != c.cfg {
		return configMismatch(c.cfg, s.cfg)
	}
	if c.n == math.MaxUint32 {
		return fmt.Errorf("pcsa: counting union is full (%d members)", c.n)
	}
	for i, w := range s.maps {
		if w == 0 {
			continue
		}
		// Lanes of w go 0→1 where the bitmap was clear and 1→2 where they
		// read 1; lanes already at 2 or more stay off the ones word.
		c.ones[i] = c.ones[i]&^w | w&^c.words[i]
		c.words[i] |= w
		lanes := c.counts[i<<6 : (i+1)<<6]
		for m := w; m != 0; m &= m - 1 {
			lanes[bits.TrailingZeros64(m)]++
		}
	}
	c.n++
	return nil
}

// Remove excludes one previously added member signature: every bit set in s
// decrements its lane, a lane reaching zero clears its bitmap bit, and a lane
// reaching one sets its ones bit.
// Removing a signature that was never added underflows a lane (or the member
// count) and returns an error; the counting state is then inconsistent and
// must be Reset or rebuilt.
func (c *Counting) Remove(s *Signature) error {
	if s.cfg != c.cfg {
		return configMismatch(c.cfg, s.cfg)
	}
	if c.n == 0 {
		return errors.New("pcsa: counting underflow (removed a member from an empty union)")
	}
	for i, w := range s.maps {
		if w == 0 {
			continue
		}
		lanes := c.counts[i<<6 : (i+1)<<6]
		for m := w; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			switch lanes[b] {
			case 0:
				return fmt.Errorf("pcsa: counting underflow at map %d bit %d (removed a non-member signature)", i, b)
			case 1:
				c.words[i] &^= 1 << uint(b)
				c.ones[i] &^= 1 << uint(b)
			case 2:
				c.ones[i] |= 1 << uint(b)
			}
			lanes[b]--
		}
	}
	c.n--
	return nil
}

// Estimate returns the distinct-count estimate of the current members'
// union, read from the implied bitmap. It is bit-identical to merging the
// members into a fresh Signature and calling Estimate there.
func (c *Counting) Estimate() float64 {
	return estimateRhoSum(c.cfg, rhoSumWords(c.words))
}

// EstimateDelta returns the estimate of the union with add included and drop
// excluded, without mutating c — the read kernel behind O(1-source)
// neighborhood flips. Either signature may be nil; drop must be a member.
// The drop side subtracts exactly the bits whose reference count is 1 (bits
// the dropped member uniquely owns, read off the ones word), so the result is
// bit-identical to re-merging the flipped member set from scratch.
func (c *Counting) EstimateDelta(add, drop *Signature) (float64, error) {
	if add != nil && add.cfg != c.cfg {
		return 0, configMismatch(c.cfg, add.cfg)
	}
	if drop != nil && drop.cfg != c.cfg {
		return 0, configMismatch(c.cfg, drop.cfg)
	}
	sum := 0
	for i, w := range c.words {
		if drop != nil {
			w &^= drop.maps[i] & c.ones[i]
		}
		if add != nil {
			w |= add.maps[i]
		}
		sum += bits.TrailingZeros64(^w)
	}
	return estimateRhoSum(c.cfg, sum), nil
}
