// Package synth generates the synthetic universes of the paper's evaluation
// (§7.1): N source descriptions whose schemas are the 50 BAMM-style Books
// schemas plus perturbed copies, whose cardinalities follow a Zipf
// distribution over [10 000, 1 000 000], whose tuples are drawn from a
// 4 000 000-tuple pool split into General and Specialty halves, and whose
// MTTF characteristic follows Normal(100, 40) days.
//
// Generation is fully deterministic per seed.
package synth

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"

	"mube/internal/bamm"
	"mube/internal/minhash"
	"mube/internal/pcsa"
	"mube/internal/schema"
	"mube/internal/source"
)

// Config parameterizes universe generation. The zero value is not usable;
// start from Defaults().
type Config struct {
	// NumSources is N, the universe size.
	NumSources int
	// Seed makes generation reproducible.
	Seed int64
	// Sig is the PCSA signature shape for all sources.
	Sig pcsa.Config

	// Perturbation probabilities (§7.1: "we add attributes to the schema,
	// remove attributes from the schema, or replace attributes ... with
	// other attributes whose names we get from a list of words unrelated to
	// the Books domain"). The first NumBase sources are exact copies of the
	// base schemas ("fully conformant"); the rest are perturbed.
	PRemove  float64 // per-attribute removal probability
	PReplace float64 // per-attribute replacement probability
	MaxAdd   int     // up to MaxAdd noise attributes appended (uniform)

	// Data shape.
	PoolSize     uint64  // distinct tuples in the universe pool (paper: 4M)
	MinCard      int64   // smallest source cardinality (paper: 10k)
	MaxCard      int64   // largest source cardinality (paper: 1M)
	ZipfS        float64 // Zipf size exponent: rank-k source holds MaxCard/k^ZipfS tuples
	SpecialtyPct float64 // fraction of a specialty source's tuples from the specialty pool

	// MTTF characteristic (days), Normal(MTTFMean, MTTFStd) clipped to ≥ 1.
	MTTFMean float64
	MTTFStd  float64

	// KeepTuples retains each source's tuple IDs in the Result so that rows
	// can be materialized for the mediator query substrate (package
	// mediator). Only sensible at reduced data scales — memory grows with
	// the total tuple count.
	KeepTuples bool

	// AttrSignatures makes every source sketch each attribute's value set
	// with a MinHash synopsis, enabling data-based attribute similarity
	// (match.Config.DataWeight). Adds one O(1) sketch update per attribute
	// per tuple during generation. Ignored in multi-domain mode.
	AttrSignatures bool
	// MinHashK is the per-attribute sketch width (0 → minhash.DefaultK).
	MinHashK int

	// Domains > 1 switches generation from the BAMM Books shape to the
	// Internet-scale multi-domain shape: each domain gets its own concept
	// vocabulary of hash-derived attribute names, schemas are removal-only
	// perturbations of the domain's full concept list, and names never repeat
	// across domains — so the similarity graph decomposes into (at least)
	// per-domain components and cluster-sharded matching has real shards to
	// work with. 0 or 1 keeps the BAMM mode unchanged.
	Domains int
	// DomainConcepts is the per-domain concept vocabulary size in multi-
	// domain mode (0 → 12).
	DomainConcepts int

	// NamePrefix is prepended to every generated source name. Name
	// formatting draws nothing from the RNG, so the prefix cannot perturb
	// the generated universe in any other way; a watch loop uses it to give
	// each epoch's arrivals universe-unique names (fault fates and probe
	// retries are keyed by name).
	NamePrefix string
}

// Defaults returns the paper's §7.1 configuration at full scale.
func Defaults() Config {
	return Config{
		NumSources:   700,
		Seed:         1,
		Sig:          pcsa.DefaultConfig,
		PRemove:      0.15,
		PReplace:     0.20,
		MaxAdd:       2,
		PoolSize:     4_000_000,
		MinCard:      10_000,
		MaxCard:      1_000_000,
		ZipfS:        1.0,
		SpecialtyPct: 0.10,
		MTTFMean:     100,
		MTTFStd:      40,
	}
}

// Scaled returns Defaults with the data volume scaled down by factor (e.g.
// 0.01 for tests): pool size and cardinality bounds shrink proportionally
// while schema generation is untouched.
func Scaled(factor float64) Config {
	c := Defaults()
	c.PoolSize = uint64(float64(c.PoolSize) * factor)
	c.MinCard = int64(math.Max(float64(c.MinCard)*factor, 16))
	c.MaxCard = int64(math.Max(float64(c.MaxCard)*factor, 64))
	return c
}

// validate rejects unusable configurations.
func (c Config) validate() error {
	if c.NumSources < 1 {
		return fmt.Errorf("synth: NumSources %d < 1", c.NumSources)
	}
	if c.MinCard < 1 || c.MaxCard < c.MinCard {
		return fmt.Errorf("synth: bad cardinality range [%d, %d]", c.MinCard, c.MaxCard)
	}
	if c.PoolSize < 2 {
		return fmt.Errorf("synth: pool size %d too small", c.PoolSize)
	}
	if c.ZipfS <= 0 {
		return fmt.Errorf("synth: ZipfS %v must be > 0", c.ZipfS)
	}
	if c.PRemove < 0 || c.PRemove > 1 || c.PReplace < 0 || c.PReplace > 1 {
		return fmt.Errorf("synth: perturbation probabilities out of range")
	}
	if c.SpecialtyPct < 0 || c.SpecialtyPct > 1 {
		return fmt.Errorf("synth: SpecialtyPct %v out of [0,1]", c.SpecialtyPct)
	}
	if c.Domains < 0 || c.DomainConcepts < 0 {
		return fmt.Errorf("synth: negative Domains/DomainConcepts")
	}
	return nil
}

// Result is a generated universe plus the ground-truth metadata the
// experiments need.
type Result struct {
	// Universe is the generated U.
	Universe *source.Universe
	// BaseSchema[i] is the index of the BAMM base schema source i derives
	// from.
	BaseSchema []int
	// Conformant lists the sources whose schemas are unperturbed copies of
	// a base schema — the pool the experiments draw source constraints from
	// (§7.2: "random sources with schemas that are fully conformant to one
	// of the original BAMM schemas").
	Conformant []schema.SourceID
	// Specialty reports which sources carry specialty tuples.
	Specialty []bool
	// Tuples holds each source's tuple IDs when Config.KeepTuples is set
	// (nil otherwise).
	Tuples [][]source.TupleID
	// AttrOrigins[i][a] is the ground-truth concept behind attribute a of
	// source i, or -1 for genuine noise. A perturbation that *renames* an
	// attribute to a noise word keeps its origin: the site changed its
	// label, not its data — which is exactly the situation data-based
	// similarity exists to recover. Read-only: a conformant BAMM source's
	// slice is the bamm corpus's shared table.
	AttrOrigins [][]int
	// Config echoes the generation parameters.
	Config Config
}

// SourceMeta is the per-source ground truth Stream hands alongside each
// generated source. Collect it (Generate does) or drop it (GenerateUniverse
// does) — at 10⁵–10⁶ sources retaining it is the caller's memory decision.
type SourceMeta struct {
	// BaseSchema is the BAMM base-schema index (BAMM mode) or the domain
	// index (multi-domain mode) the source derives from.
	BaseSchema int
	// Conformant reports an unperturbed copy of the base schema.
	Conformant bool
	// Specialty reports whether the source carries specialty tuples.
	Specialty bool
	// AttrOrigins[a] is the ground-truth concept behind attribute a, -1 for
	// genuine noise. Read-only: a conformant BAMM source's slice is the bamm
	// corpus's shared table.
	AttrOrigins []int
	// Tuples holds the source's tuple IDs when Config.KeepTuples is set.
	Tuples []source.TupleID
}

// Stream generates the universe one source at a time, calling yield for each.
// Nothing is retained between sources beyond O(N) rank bookkeeping — no rows,
// no cumulative metadata — so a 10⁵–10⁶-source universe streams in bounded
// memory into whatever the caller accumulates (typically a Universe, which
// keeps each source's signature as it arrives). A yield error aborts
// generation and is returned as-is.
//
// Schemas are built on vocab, normally the destination universe's
// (Universe.Vocab), so that Universe.Add adopts them as they are. Each
// generator interns its names into vocab once per call and then emits ids;
// Stream interns while it runs, so nothing may read vocab concurrently.
//
// Generation is fully deterministic per seed, and the BAMM mode's random
// stream is identical to historical Generate output.
func Stream(cfg Config, vocab *schema.Vocab, yield func(*source.Source, SourceMeta) error) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Domains > 1 {
		return streamDomains(cfg, r, vocab, yield)
	}
	return streamBAMM(cfg, r, vocab, yield)
}

// Generate builds a synthetic universe with full ground-truth metadata, by
// streaming and collecting.
func Generate(cfg Config) (*Result, error) {
	res := &Result{Universe: source.NewUniverse(cfg.Sig), Config: cfg}
	err := Stream(cfg, res.Universe.Vocab(), func(s *source.Source, m SourceMeta) error {
		id, err := res.Universe.Add(s)
		if err != nil {
			return err
		}
		res.BaseSchema = append(res.BaseSchema, m.BaseSchema)
		res.Specialty = append(res.Specialty, m.Specialty)
		res.AttrOrigins = append(res.AttrOrigins, m.AttrOrigins)
		if m.Conformant {
			res.Conformant = append(res.Conformant, id)
		}
		if cfg.KeepTuples {
			res.Tuples = append(res.Tuples, m.Tuples)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Materialize the universe aggregates (total cardinality, |∪U| estimate)
	// at generation time rather than inside the first Coverage evaluation.
	res.Universe.Precompute()
	return res, nil
}

// GenerateUniverse streams a universe without retaining ground-truth
// metadata or tuples — the memory-lean entry point for scale benchmarks.
func GenerateUniverse(cfg Config) (*source.Universe, error) {
	u := source.NewUniverse(cfg.Sig)
	err := Stream(cfg, u.Vocab(), func(s *source.Source, _ SourceMeta) error {
		_, err := u.Add(s)
		return err
	})
	if err != nil {
		return nil, err
	}
	u.Precompute()
	return u, nil
}

// bammIDs resolves the BAMM generator's names into one vocabulary on first
// use, at most once per Stream call: a base schema when a source first
// derives from it, a noise word when it is first drawn.
type bammIDs struct {
	v     *schema.Vocab
	base  [][]int32 // base schema i's ids; nil until used
	noise []int32   // noise word k's id + 1; 0 until drawn
}

func newBAMMIDs(v *schema.Vocab) *bammIDs {
	return &bammIDs{v: v, base: make([][]int32, bamm.NumSchemas()), noise: make([]int32, len(noiseWords))}
}

// schema returns base schema i's ids. Sources share the slice read-only.
func (b *bammIDs) schema(i int) []int32 {
	if b.base[i] == nil {
		names, _ := bamm.Base(i)
		ids := make([]int32, len(names))
		for j, n := range names {
			ids[j] = b.v.Intern(n)
		}
		b.base[i] = ids
	}
	return b.base[i]
}

// noiseWord returns noise word k's id.
func (b *bammIDs) noiseWord(k int) int32 {
	if b.noise[k] == 0 {
		b.noise[k] = b.v.Intern(noiseWords[k]) + 1
	}
	return b.noise[k] - 1
}

// streamBAMM is the paper's §7.1 generator: BAMM Books schemas plus
// perturbed copies. The RNG call sequence is load-bearing — it reproduces
// the exact universes of archived experiment runs — so edits must not
// insert, remove, or reorder draws.
func streamBAMM(cfg Config, r *rand.Rand, vocab *schema.Vocab, yield func(*source.Source, SourceMeta) error) error {
	numBase := bamm.NumSchemas()
	ids := newBAMMIDs(vocab)
	minhashK := cfg.MinHashK
	if minhashK == 0 {
		minhashK = minhash.DefaultK
	}
	// Rank-based Zipf over source sizes: the source of rank k holds
	// MaxCard/k^s tuples (clipped to MinCard), ranks shuffled across the
	// universe. This matches the paper's "number of tuples ranging from
	// 10,000 to 1,000,000 that follows a Zipf distribution": a few huge
	// sources, many small ones.
	ranks := r.Perm(cfg.NumSources)
	generalPool := cfg.PoolSize / 2
	vocabScale := VocabScale(cfg)
	var name []byte
	var attrNames []string // the attribute names ValueID hashes

	for i := 0; i < cfg.NumSources; i++ {
		baseIdx := i % numBase
		conformant := i < numBase
		_, origins := bamm.Base(baseIdx)
		attrs := ids.schema(baseIdx)
		if !conformant {
			attrs, origins = perturb(r, attrs, origins, cfg, ids)
		}

		card := int64(float64(cfg.MaxCard) / math.Pow(float64(ranks[i]+1), cfg.ZipfS))
		if card < cfg.MinCard {
			card = cfg.MinCard
		}
		specialty := i%2 == 1 // half the sources carry specialty items

		sig, err := pcsa.New(cfg.Sig)
		if err != nil {
			return err
		}
		nSpec := int64(0)
		if specialty {
			nSpec = int64(cfg.SpecialtyPct * float64(card))
		}
		var kept []source.TupleID
		if cfg.KeepTuples {
			kept = make([]source.TupleID, 0, card)
		}
		var attrSigs []*minhash.Signature
		if cfg.AttrSignatures {
			attrNames = attrNames[:0]
			for _, id := range attrs {
				attrNames = append(attrNames, vocab.Name(id))
			}
			attrSigs = make([]*minhash.Signature, len(attrs))
			for a := range attrSigs {
				s, err := minhash.New(minhashK, 0)
				if err != nil {
					return err
				}
				attrSigs[a] = s
			}
		}
		for t := int64(0); t < card; t++ {
			var tuple uint64
			if t < nSpec {
				tuple = generalPool + uint64(r.Int63n(int64(cfg.PoolSize-generalPool)))
			} else {
				tuple = uint64(r.Int63n(int64(generalPool)))
			}
			sig.AddUint64(tuple)
			if cfg.KeepTuples {
				kept = append(kept, tuple)
			}
			for a := range attrSigs {
				attrSigs[a].AddUint64(ValueID(tuple, origins[a], attrNames[a], vocabScale))
			}
		}

		mttf := cfg.MTTFMean + r.NormFloat64()*cfg.MTTFStd
		if mttf < 1 {
			mttf = 1
		}
		name = bammName(name[:0], cfg.NamePrefix, i, baseIdx)
		s := &source.Source{
			Name:           string(name),
			Schema:         schema.FromIDs(vocab, attrs),
			Cardinality:    card,
			Signature:      sig,
			AttrSignatures: attrSigs,
			Characteristics: []source.Characteristic{
				{Name: "mttf", Value: mttf},
				// Per-source query latency in milliseconds, used by the
				// mediator's cost simulation and available as a QEF.
				{Name: "latency", Value: 50 + r.Float64()*450},
			},
		}
		meta := SourceMeta{
			BaseSchema:  baseIdx,
			Conformant:  conformant,
			Specialty:   specialty,
			AttrOrigins: origins,
			Tuples:      kept,
		}
		if err := yield(s, meta); err != nil {
			return err
		}
	}
	return nil
}

// streamDomains is the Internet-scale generator: cfg.Domains disjoint
// concept vocabularies of hash-derived names, schemas drawn by removal-only
// perturbation from the source's domain vocabulary. Because attribute names
// never repeat (and, being random 12-char hex tokens, share essentially no
// 3-grams) across domains, the θ-thresholded similarity graph decomposes
// into per-domain components — the structure cluster-sharded matching and
// the partitioned solver exploit. Data shape (Zipf cardinalities, the
// General/Specialty tuple pool, MTTF, latency) matches the BAMM mode.
func streamDomains(cfg Config, r *rand.Rand, vocab *schema.Vocab, yield func(*source.Source, SourceMeta) error) error {
	nd := cfg.Domains
	nc := cfg.DomainConcepts
	if nc == 0 {
		nc = 12
	}
	// concept[d][c] is the id of domain d's concept c in vocab.
	concept := make([][]int32, nd)
	for d, names := range domainVocab(cfg.Seed, nd, nc) {
		concept[d] = make([]int32, nc)
		for c, n := range names {
			concept[d][c] = vocab.Intern(n)
		}
	}
	ranks := r.Perm(cfg.NumSources)
	generalPool := cfg.PoolSize / 2
	// attrs is scratch, which each schema copies at its exact length.
	// origins goes into the source's SourceMeta, which callers keep, so it
	// is fresh per source.
	attrs := make([]int32, 0, nc)
	var name []byte

	for i := 0; i < cfg.NumSources; i++ {
		d := i % nd
		conformant := i < nd // one full-vocabulary source per domain
		attrs = attrs[:0]
		origins := make([]int, 0, nc)
		for c := 0; c < nc; c++ {
			if !conformant && r.Float64() < cfg.PRemove {
				continue
			}
			attrs = append(attrs, concept[d][c])
			origins = append(origins, d*nc+c)
		}
		if len(attrs) == 0 {
			c := r.Intn(nc)
			attrs = append(attrs, concept[d][c])
			origins = append(origins, d*nc+c)
		}

		card := int64(float64(cfg.MaxCard) / math.Pow(float64(ranks[i]+1), cfg.ZipfS))
		if card < cfg.MinCard {
			card = cfg.MinCard
		}
		specialty := i%2 == 1

		sig, err := pcsa.New(cfg.Sig)
		if err != nil {
			return err
		}
		nSpec := int64(0)
		if specialty {
			nSpec = int64(cfg.SpecialtyPct * float64(card))
		}
		var kept []source.TupleID
		if cfg.KeepTuples {
			kept = make([]source.TupleID, 0, card)
		}
		for t := int64(0); t < card; t++ {
			var tuple uint64
			if t < nSpec {
				tuple = generalPool + uint64(r.Int63n(int64(cfg.PoolSize-generalPool)))
			} else {
				tuple = uint64(r.Int63n(int64(generalPool)))
			}
			sig.AddUint64(tuple)
			if cfg.KeepTuples {
				kept = append(kept, tuple)
			}
		}

		mttf := cfg.MTTFMean + r.NormFloat64()*cfg.MTTFStd
		if mttf < 1 {
			mttf = 1
		}
		name = domainName(name[:0], cfg.NamePrefix, i, d)
		s := &source.Source{
			Name:        string(name),
			Schema:      schema.FromIDs(vocab, slices.Clone(attrs)),
			Cardinality: card,
			Signature:   sig,
			Characteristics: []source.Characteristic{
				{Name: "mttf", Value: mttf},
				{Name: "latency", Value: 50 + r.Float64()*450},
			},
		}
		meta := SourceMeta{
			BaseSchema:  d,
			Conformant:  conformant,
			Specialty:   specialty,
			AttrOrigins: origins,
			Tuples:      kept,
		}
		if err := yield(s, meta); err != nil {
			return err
		}
	}
	return nil
}

// bammName appends prefix + fmt.Sprintf("src-%03d-b%02d", i, b) to buf.
func bammName(buf []byte, prefix string, i, b int) []byte {
	buf = append(append(buf, prefix...), "src-"...)
	buf = appendPadded(buf, i, 3)
	buf = append(buf, "-b"...)
	return appendPadded(buf, b, 2)
}

// domainName appends prefix + fmt.Sprintf("src-%06d-d%03d", i, d) to buf.
func domainName(buf []byte, prefix string, i, d int) []byte {
	buf = append(append(buf, prefix...), "src-"...)
	buf = appendPadded(buf, i, 6)
	buf = append(buf, "-d"...)
	return appendPadded(buf, d, 3)
}

// appendPadded appends the non-negative v in decimal, zero-padded on the left
// to width digits, as fmt's %0<width>d spells it: a wider v keeps every digit.
func appendPadded(buf []byte, v, width int) []byte {
	n := 1
	for x := v; x >= 10; x /= 10 {
		n++
	}
	for ; n < width; n++ {
		buf = append(buf, '0')
	}
	return strconv.AppendInt(buf, int64(v), 10)
}

// domainVocab derives nd disjoint vocabularies of nc attribute names each
// from the seed. Names are 12-character hex tokens ("a1f3c09b24de"): two
// random tokens share essentially no 3-grams, so cross-domain similarity
// stays far below any sensible θ. Collisions (astronomically rare) are
// resolved deterministically by salting.
func domainVocab(seed int64, nd, nc int) [][]string {
	used := make(map[string]bool, nd*nc)
	names := make([][]string, nd)
	for d := range names {
		names[d] = make([]string, nc)
		for c := range names[d] {
			for salt := 0; ; salt++ {
				h := nameMix(uint64(seed)+0x9e3779b97f4a7c15, uint64(d), uint64(c), uint64(salt))
				n := fmt.Sprintf("%012x", h&(1<<48-1))
				if !used[n] {
					used[n] = true
					names[d][c] = n
					break
				}
			}
		}
	}
	return names
}

// nameMix folds the vocabulary coordinates into 64 bits (SplitMix64-style
// finalizer).
func nameMix(xs ...uint64) uint64 {
	var h uint64 = 0x6d75626573796e74 // "mubesynt"
	for _, x := range xs {
		h ^= x + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// perturb applies the §7.1 schema perturbation: per attribute, remove with
// PRemove or replace its *name* with a noise word with PReplace (the data
// behind it is unchanged, so the origin concept is kept); then append up to
// MaxAdd genuine noise attributes (origin -1). The result always keeps at
// least one attribute. Attributes are name ids; noise words resolve through
// ids.
func perturb(r *rand.Rand, attrs []int32, origins []int, cfg Config, ids *bammIDs) ([]int32, []int) {
	outAttrs := make([]int32, 0, len(attrs)+cfg.MaxAdd)
	outOrigins := make([]int, 0, len(attrs)+cfg.MaxAdd)
	for i, a := range attrs {
		roll := r.Float64()
		switch {
		case roll < cfg.PRemove:
			// removed
		case roll < cfg.PRemove+cfg.PReplace:
			outAttrs = append(outAttrs, ids.noiseWord(r.Intn(len(noiseWords))))
			outOrigins = append(outOrigins, origins[i]) // renamed, not re-sourced
		default:
			outAttrs = append(outAttrs, a)
			outOrigins = append(outOrigins, origins[i])
		}
	}
	if cfg.MaxAdd > 0 {
		for n := r.Intn(cfg.MaxAdd + 1); n > 0; n-- {
			outAttrs = append(outAttrs, ids.noiseWord(r.Intn(len(noiseWords))))
			outOrigins = append(outOrigins, -1)
		}
	}
	if len(outAttrs) == 0 {
		pick := r.Intn(len(attrs))
		outAttrs = append(outAttrs, attrs[pick])
		outOrigins = append(outOrigins, origins[pick])
	}
	return dedup(outAttrs, outOrigins)
}

// dedup removes duplicate attribute name ids in place (keeping first
// occurrences, with their origins) so that source schemas remain lists of
// distinct attributes. A schema has a handful of attributes, so each is
// checked against those kept so far.
func dedup(attrs []int32, origins []int) ([]int32, []int) {
	outA := attrs[:0]
	outO := origins[:0]
	for i, a := range attrs {
		if slices.Contains(outA, a) {
			continue
		}
		outA = append(outA, a)
		outO = append(outO, origins[i])
	}
	return outA, outO
}

// ConceptSources returns, for each concept, how many of the sources in sel
// express it (a source counts once per concept). It is the ground-truth view
// Table 1's "missed" column needs.
func ConceptSources(u *source.Universe, sel []schema.SourceID) map[int]int {
	counts := make(map[int]int)
	for _, id := range sel {
		s := u.Source(id)
		seen := make(map[int]bool)
		for j := 0; j < s.Schema.Len(); j++ {
			if ci, ok := bamm.ConceptOf(s.Schema.Name(j)); ok && !seen[ci] {
				seen[ci] = true
				counts[ci]++
			}
		}
	}
	return counts
}
