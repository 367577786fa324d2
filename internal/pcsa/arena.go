package pcsa

import "fmt"

// Arena owns signature storage for a whole collection of sources as a few
// large contiguous word slabs instead of one heap object per source. At
// Internet scale (10⁵–10⁶ sources) per-source `make([]uint64, m)` allocations
// fragment the heap, cost a pointer dereference per signature touched, and
// give the GC a million objects to trace; the arena packs all signature words
// back-to-back so union loops walk memory sequentially and the GC sees a
// handful of slabs.
//
// Storage is chunked with geometric growth: each chunk is one contiguous
// `[]uint64` holding a fixed number of signatures, and chunks are never
// reallocated once handed out, so every *Signature view the arena returns
// stays valid for the arena's lifetime. Views are ordinary Signatures whose
// maps slice aliases the slab (full-capacity subslices, so no append can
// clobber a neighbor); every existing kernel — orWords, rhoSumWords,
// EstimateDelta — operates on them unchanged.
//
// An Arena is single-goroutine during population (like Universe.Add); the
// interned views are immutable afterwards and safe for concurrent reads.
type Arena struct {
	cfg    Config
	chunks []arenaChunk
	n      int // signatures handed out
}

// arenaChunk is one slab: words holds cap(views)*NumMaps uint64s and views
// the pre-carved Signature structs aliasing it. Both are allocated once at
// full length and never grown, keeping &views[i] stable.
type arenaChunk struct {
	words []uint64
	views []Signature
	used  int
}

// arena chunk sizing: the first chunk holds firstChunkSigs signatures and
// each subsequent chunk doubles, capped at maxChunkSigs — small universes pay
// a few KiB, a 100k-source universe lands in ~20 slabs.
const (
	firstChunkSigs = 64
	maxChunkSigs   = 8192
)

// NewArena returns an empty arena for signatures of the given configuration.
func NewArena(cfg Config) (*Arena, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Arena{cfg: cfg}, nil
}

// Len returns the number of signatures the arena has handed out.
func (a *Arena) Len() int { return a.n }

// Bytes returns the total slab memory the arena has reserved.
func (a *Arena) Bytes() int {
	total := 0
	for _, c := range a.chunks {
		total += 8 * len(c.words)
	}
	return total
}

// New carves out one zeroed signature view. The returned pointer is stable
// for the arena's lifetime.
func (a *Arena) New() *Signature {
	last := len(a.chunks) - 1
	if last < 0 || a.chunks[last].used == len(a.chunks[last].views) {
		// Cap the shift, not just the result: past a few dozen chunks
		// (~half a million signatures) firstChunkSigs << len(chunks)
		// overflows int and the clamp below would never fire.
		size := maxChunkSigs
		if shift := len(a.chunks); shift < 32 && firstChunkSigs<<shift < maxChunkSigs {
			size = firstChunkSigs << shift
		}
		a.chunks = append(a.chunks, arenaChunk{
			words: make([]uint64, size*a.cfg.NumMaps),
			views: make([]Signature, size),
		})
		last++
	}
	c := &a.chunks[last]
	i := c.used
	c.used++
	a.n++
	off := i * a.cfg.NumMaps
	v := &c.views[i]
	*v = Signature{cfg: a.cfg, maps: c.words[off : off+a.cfg.NumMaps : off+a.cfg.NumMaps]}
	return v
}

// Intern copies s into the arena and returns the arena-backed view. The
// original signature is untouched (callers typically drop it, retiring its
// heap allocation). Configurations must match the arena's.
func (a *Arena) Intern(s *Signature) (*Signature, error) {
	if s.cfg != a.cfg {
		return nil, configMismatch(a.cfg, s.cfg)
	}
	v := a.New()
	copy(v.maps, s.maps)
	return v, nil
}

// MustIntern is Intern that panics on a configuration mismatch; intended for
// builders that already enforce a uniform config.
func (a *Arena) MustIntern(s *Signature) *Signature {
	v, err := a.Intern(s)
	if err != nil {
		panic(fmt.Sprintf("pcsa: arena intern: %v", err))
	}
	return v
}
