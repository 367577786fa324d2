package pcsa

import (
	"fmt"
	"math/bits"
)

// maxCount is the saturation ceiling of one reference-count lane. A lane
// that reaches it becomes sticky: it is never incremented or decremented
// again and its bitmap bit stays set forever. Saturated() reports whether
// any lane is sticky, which callers use to route subtractions through the
// exact full-merge path instead.
const maxCount = 0xff

// Counting is a subtractable PCSA union: for every bucket bit of the
// underlying bitmaps it keeps a saturating uint8 reference count of how many
// member signatures set that bit. Adding a member increments, removing one
// decrements, and the implied bitmap (bit set ⇔ count > 0) is exactly the OR
// of the current members' bitmaps — so Estimate returns a float bit-identical
// to merging the members from scratch.
//
// The exactness guarantee has one carve-out: a lane whose count saturates at
// 255 turns sticky (its true count is no longer known), so once Saturated()
// reports true, removals may leave bits set that a full re-merge would
// clear. Callers that need bit-identical subtraction must fall back to the
// full path while Saturated() holds; with µBE's subset caps (|S| ≤ m, and m
// far below 255 in practice) saturation does not occur.
//
// A Counting is not safe for concurrent mutation; concurrent read-only use
// (Estimate, EstimateDelta, Saturated) is safe once mutations have
// happened-before it.
type Counting struct {
	cfg    Config
	counts []uint8  // NumMaps*64 per-bucket-bit reference counts
	words  []uint64 // implied bitmap, maintained incrementally
	sat    int      // sticky (saturated) lanes
	n      int      // member signatures currently included
}

// NewCounting returns an empty counting union with the given configuration.
func NewCounting(cfg Config) (*Counting, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Counting{
		cfg:    cfg,
		counts: make([]uint8, cfg.NumMaps*64),
		words:  make([]uint64, cfg.NumMaps),
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

// Config returns the counting union's configuration.
func (c *Counting) Config() Config { return c.cfg }

// Members returns the number of signatures currently included.
func (c *Counting) Members() int { return c.n }

// Saturated reports whether any reference-count lane has turned sticky.
// While true, Remove and the drop side of EstimateDelta are no longer exact
// and callers must use the full re-merge path for subtractions.
func (c *Counting) Saturated() bool { return c.sat > 0 }

// Reset clears all counts, returning c to the empty state while keeping its
// configuration and backing storage.
func (c *Counting) Reset() {
	for i := range c.counts {
		c.counts[i] = 0
	}
	for i := range c.words {
		c.words[i] = 0
	}
	c.sat = 0
	c.n = 0
}

// Add includes one member signature: every bit set in s increments its lane.
func (c *Counting) Add(s *Signature) error {
	if s.cfg != c.cfg {
		return configMismatch(c.cfg, s.cfg)
	}
	for i, w := range s.maps {
		if w == 0 {
			continue
		}
		base := i << 6
		for m := w; m != 0; m &= m - 1 {
			l := base + bits.TrailingZeros64(m)
			switch c.counts[l] {
			case 0:
				c.counts[l] = 1
				c.words[i] |= 1 << uint(l-base)
			case maxCount: // sticky: frozen forever
			case maxCount - 1:
				c.counts[l] = maxCount
				c.sat++
			default:
				c.counts[l]++
			}
		}
	}
	c.n++
	return nil
}

// Remove excludes one previously added member signature: every bit set in s
// decrements its lane, and a lane reaching zero clears its bitmap bit. Sticky
// lanes are left untouched (see Saturated). Removing a signature that was
// never added underflows a lane and returns an error; the counting state is
// then inconsistent and must be Reset or rebuilt.
func (c *Counting) Remove(s *Signature) error {
	if s.cfg != c.cfg {
		return configMismatch(c.cfg, s.cfg)
	}
	for i, w := range s.maps {
		if w == 0 {
			continue
		}
		base := i << 6
		for m := w; m != 0; m &= m - 1 {
			l := base + bits.TrailingZeros64(m)
			switch c.counts[l] {
			case 0:
				return fmt.Errorf("pcsa: counting underflow at map %d bit %d (removed a non-member signature)", i, l-base)
			case maxCount: // sticky: frozen forever
			case 1:
				c.counts[l] = 0
				c.words[i] &^= 1 << uint(l-base)
			default:
				c.counts[l]--
			}
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
// neighborhood flips. Either signature may be nil. The drop side subtracts
// exactly the bits whose reference count is 1 (bits the dropped member
// uniquely owns), so the result is bit-identical to re-merging the flipped
// member set from scratch — provided c is not Saturated when drop is
// non-nil, which is the caller's responsibility to check.
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
			if dw := drop.maps[i]; dw != 0 {
				base := i << 6
				var cleared uint64
				for m := dw; m != 0; m &= m - 1 {
					b := bits.TrailingZeros64(m)
					if c.counts[base+b] == 1 {
						cleared |= 1 << uint(b)
					}
				}
				w &^= cleared
			}
		}
		if add != nil {
			w |= add.maps[i]
		}
		sum += bits.TrailingZeros64(^w)
	}
	return estimateRhoSum(c.cfg, sum), nil
}

// SizeBytes returns the in-memory size of the counting union's lanes and
// implied bitmap: 9 bytes per bucket bit (≈18 KiB at DefaultConfig).
func (c *Counting) SizeBytes() int { return len(c.counts) + 8*len(c.words) }
