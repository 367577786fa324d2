// Package match implements µBE's schema matching operator Match(S) (§3): a
// greedy constrained similarity clustering over the attributes of a set of
// sources that produces a mediated schema (a set of GAs) and its matching
// quality, honoring user GA constraints as seed clusters ("Matching By
// Example").
//
// The matcher is parameterized by any pairwise attribute similarity measure
// (strutil.Similarity); the paper's prototype uses the Jaccard coefficient
// of 3-grams of the attribute names.
//
// Because attribute names in a universe repeat heavily (Internet-scale
// universes contain many near-copies of domain schemas), the matcher interns
// normalized names and precomputes one similarity table over *distinct*
// names; per-pair lookups during clustering are O(1).
package match

import (
	"fmt"
	"sync"

	"mube/internal/schema"
	"mube/internal/source"
	"mube/internal/strutil"
)

// Linkage defines how cluster-to-cluster similarity is derived from
// attribute-to-attribute similarity.
type Linkage int

const (
	// MaxLinkage defines cluster similarity as the maximum similarity
	// between an attribute of one cluster and an attribute of the other —
	// the paper's choice, which enables the bridging effect of GA
	// constraints (§3).
	MaxLinkage Linkage = iota
	// AvgLinkage uses the average cross-cluster pair similarity; provided
	// for the linkage ablation experiment.
	AvgLinkage
)

// String names the linkage.
func (l Linkage) String() string {
	if l == AvgLinkage {
		return "avg"
	}
	return "max"
}

// Config parameterizes a Matcher.
type Config struct {
	// Similarity is the attribute-name similarity measure. Defaults to
	// strutil.TriGramJaccard.
	Similarity strutil.Similarity
	// Theta is the matching threshold θ ∈ (0,1]: clusters merge only when
	// their similarity is at least Theta. Defaults to DefaultTheta.
	Theta float64
	// Beta is the lower bound β ≥ 1 on the size of any output GA not
	// containing a user GA constraint. Defaults to DefaultBeta.
	Beta int
	// Linkage selects the cluster similarity definition. Defaults to
	// MaxLinkage.
	Linkage Linkage
	// DataWeight ∈ [0,1] blends data-based similarity into the measure:
	// pairSim = (1−w)·nameSim + w·minhashJaccard(value sketches). Non-zero
	// weights require sources to provide per-attribute MinHash signatures
	// (source.Source.AttrSignatures); attribute pairs without sketches fall
	// back to a 0 data component. 0 (the default) reproduces the paper's
	// purely name-based prototype.
	DataWeight float64
}

// Default matching parameters (see DESIGN.md: the paper's θ value is
// truncated in the available text; 0.5 separates same-concept name variants
// from cross-concept pairs under 3-gram Jaccard).
const (
	DefaultTheta = 0.5
	DefaultBeta  = 2
)

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Similarity == nil {
		c.Similarity = strutil.TriGramJaccard
	}
	if c.Theta == 0 {
		c.Theta = DefaultTheta
	}
	if c.Beta == 0 {
		c.Beta = DefaultBeta
	}
	return c
}

// validate rejects out-of-range parameters.
func (c Config) validate() error {
	if c.Theta <= 0 || c.Theta > 1 {
		return fmt.Errorf("match: theta %v out of (0,1]", c.Theta)
	}
	if c.Beta < 1 {
		return fmt.Errorf("match: beta %d < 1", c.Beta)
	}
	if c.DataWeight < 0 || c.DataWeight > 1 {
		return fmt.Errorf("match: data weight %v out of [0,1]", c.DataWeight)
	}
	return nil
}

// Matcher is the Match(S) operator bound to one universe. It is safe for
// concurrent use after construction (all state is read-only).
type Matcher struct {
	u   *source.Universe
	cfg Config

	// simID[s][a] is the similarity id of attribute a of source s: an
	// interned-name id in the default (name-only) mode, or a global
	// attribute index in hybrid (data-weighted) mode.
	simID [][]int
	// table is the packed upper-triangular similarity matrix over
	// similarity ids (diagonal included).
	table []float32
	// n is the number of similarity ids.
	n int
	// interning is retained from construction so Rebind can extend the
	// name table incrementally when the universe churns instead of
	// rebuilding it from scratch.
	interning
	// nameID[s][a] is the name id of attribute a of source s; in name mode
	// these are the simID slices themselves.
	nameID [][]int
	// grams holds the names' gram sets for gram-set measures, nil for any
	// other measure.
	grams *nameGrams

	// pool recycles clustering scratch (cluster slabs, ref/name arenas, the
	// pair heap) across Match/Score calls; shared by WithParams clones since
	// buffers are parameter-independent. Pointer-typed so the value copy in
	// WithParams stays legal.
	pool *sync.Pool
	// shardc lazily caches the θ-level shard index (connected components of
	// the similarity graph). It depends on Theta, so WithParams clones get a
	// fresh cache.
	shardc *shardCache
}

// New builds a matcher for u, precomputing the distinct-name similarity
// table.
func New(u *source.Universe, cfg Config) (*Matcher, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Matcher{u: u, cfg: cfg, interning: newInterning()}
	m.pool = &sync.Pool{New: func() any { return newMatchScratch() }}
	m.shardc = &shardCache{}
	// Intern normalized names and compute the distinct-name similarity
	// table — the name component in both modes.
	m.nameID = m.assign(u)
	m.grams = newNameGrams(m.names, cfg.Similarity)
	d := len(m.names)
	nameTable := m.nameTable(nil, 0)
	nameSim := func(a, b int) float32 {
		if a > b {
			a, b = b, a
		}
		return nameTable[a*d-a*(a-1)/2+(b-a)]
	}

	if cfg.DataWeight == 0 {
		m.simID = m.nameID
		m.n = d
		m.table = nameTable
		return m, nil
	}

	// Hybrid mode: one similarity id per attribute; the table blends the
	// name component with the MinHash Jaccard of the attributes' value
	// sketches.
	m.simID = make([][]int, u.Len())
	var attrs []schema.AttrRef
	for si, s := range u.Sources() {
		row := make([]int, s.Schema.Len())
		for ai := 0; ai < s.Schema.Len(); ai++ {
			row[ai] = len(attrs)
			attrs = append(attrs, schema.AttrRef{Source: schema.SourceID(si), Attr: ai})
		}
		m.simID[si] = row
	}
	m.n = len(attrs)
	m.table = make([]float32, m.n*(m.n+1)/2)
	w := float32(cfg.DataWeight)
	for i := 0; i < m.n; i++ {
		m.table[m.packed(i, i)] = 1
		ra := attrs[i]
		sigA := u.Source(ra.Source).AttrSignature(ra.Attr)
		for j := i + 1; j < m.n; j++ {
			rb := attrs[j]
			sim := (1 - w) * nameSim(m.nameID[ra.Source][ra.Attr], m.nameID[rb.Source][rb.Attr])
			if sigA != nil {
				if sigB := u.Source(rb.Source).AttrSignature(rb.Attr); sigB != nil {
					if jac, err := sigA.Jaccard(sigB); err == nil {
						sim += w * float32(jac)
					}
				}
			}
			m.table[m.packed(i, j)] = sim
		}
	}
	return m, nil
}

// MustNew is New that panics on error; for tests and package defaults.
func MustNew(u *source.Universe, cfg Config) *Matcher {
	m, err := New(u, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// packed returns the index of (i,j), i ≤ j, in the triangular table.
func (m *Matcher) packed(i, j int) int {
	return i*m.n - i*(i-1)/2 + (j - i)
}

// simByID returns the similarity of two similarity ids.
func (m *Matcher) simByID(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	return float64(m.table[m.packed(a, b)])
}

// PairSim returns the similarity of two attributes.
func (m *Matcher) PairSim(a, b schema.AttrRef) float64 {
	return m.simByID(m.simID[a.Source][a.Attr], m.simID[b.Source][b.Attr])
}

// Config returns the matcher's effective configuration.
func (m *Matcher) Config() Config { return m.cfg }

// WithParams returns a matcher that shares this matcher's (immutable)
// similarity table but clusters with different parameters. Changing θ, β, or
// the linkage between µBE iterations is therefore cheap; only changing the
// similarity measure itself requires a full New.
func (m *Matcher) WithParams(theta float64, beta int, linkage Linkage) (*Matcher, error) {
	cfg := m.cfg
	cfg.Theta = theta
	cfg.Beta = beta
	cfg.Linkage = linkage
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	clone := *m
	clone.cfg = cfg
	// The shard index is a function of θ; give the clone its own cache. The
	// scratch pool carries no parameters and stays shared.
	clone.shardc = &shardCache{}
	return &clone, nil
}

// Rebind returns a matcher over nu — typically this matcher's universe after
// a churn tick added, dropped, or drifted sources — that reuses every
// similarity already in the table and computes only the pairs involving
// genuinely new attribute names. With churn touching a few percent of
// sources per epoch the distinct-name set barely moves, so a rebind is
// usually a re-interning pass (normalizing only unseen spellings) plus
// scoring the few pairs with a new name. Similarities of pairs present in
// both tables are copied bit-for-bit, so clustering over the rebound matcher
// scores identically to a from-scratch build. Hybrid (data-weighted) tables
// are keyed per attribute, not per distinct name, so they fall back to New.
func (m *Matcher) Rebind(nu *source.Universe) (*Matcher, error) {
	if m.cfg.DataWeight != 0 {
		return New(nu, m.cfg)
	}
	clone := *m
	clone.u = nu
	// The shard index is a function of the universe; give the clone its own
	// cache. The scratch pool carries no universe state and stays shared.
	clone.shardc = &shardCache{}
	clone.interning = m.interning.clone()
	clone.simID = clone.assign(nu)
	clone.nameID = clone.simID
	clone.n = len(clone.names)
	if clone.n == m.n {
		// No new names: the distinct-name table is exactly the old one.
		// (Names dropped with their sources stay interned — the table only
		// grows — which keeps every surviving id, and so every copied
		// similarity, stable.)
		return &clone, nil
	}
	clone.grams = newNameGrams(clone.names, m.cfg.Similarity)
	clone.table = clone.nameTable(m.table, m.n)
	return &clone, nil
}

// Universe returns the universe the matcher is bound to.
func (m *Matcher) Universe() *source.Universe { return m.u }

// Theta returns the matching threshold.
func (m *Matcher) Theta() float64 { return m.cfg.Theta }

// Result is the output of Match(S).
type Result struct {
	// OK is false when no matching satisfies both the matching threshold
	// and the source constraints for this set of sources; in that case the
	// schema is empty and Quality is 0 (Algorithm 1, line 24).
	OK bool
	// Schema is the generated mediated schema M.
	Schema schema.Mediated
	// Quality is F1(S): the average per-GA matching quality.
	Quality float64
	// GAQuality[i] is the matching quality of Schema.GAs[i]: the maximum
	// similarity between any two of its attributes (1 for singleton GAs).
	GAQuality []float64
}

// GAQuality computes the paper's per-GA quality: the maximum similarity
// between any two attributes of g (1 if g has fewer than two attributes).
func (m *Matcher) GAQuality(g schema.GA) float64 {
	refs := g.Refs()
	if len(refs) < 2 {
		return 1
	}
	best := 0.0
	for i := 0; i < len(refs); i++ {
		ni := m.simID[refs[i].Source][refs[i].Attr]
		for j := i + 1; j < len(refs); j++ {
			nj := m.simID[refs[j].Source][refs[j].Attr]
			if s := m.simByID(ni, nj); s > best {
				best = s
			}
		}
	}
	return best
}
