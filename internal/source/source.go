// Package source models µBE's view of a data source (§2.1): a schema, data
// characteristics (cardinality and a PCSA hash signature), and a set of
// user-meaningful source characteristics (latency, availability, fees,
// reputation, MTTF, …). It also defines the Universe — the set of all
// candidate sources from which µBE selects a data integration solution.
//
// µBE never needs a source's actual tuples: cooperative sources export their
// cardinality and a hash signature computed in one pass over their data, and
// those synopses are cached by µBE (§4). Uncooperative sources may still be
// selected, but score zero on the data-dependent quality metrics.
package source

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"mube/internal/minhash"
	"mube/internal/pcsa"
	"mube/internal/schema"
)

// TupleID identifies a tuple. Synthetic workloads draw IDs from a fixed
// pool; real adapters would hash tuple content into an ID (see pcsa.AddBytes).
type TupleID = uint64

// TupleIterator streams a source's tuples one at a time.
type TupleIterator interface {
	// Next returns the next tuple and true, or 0 and false when exhausted.
	Next() (TupleID, bool)
}

// SliceIterator iterates over an in-memory slice of tuples.
type SliceIterator struct {
	tuples []TupleID
	pos    int
}

// NewSliceIterator returns an iterator over tuples.
func NewSliceIterator(tuples []TupleID) *SliceIterator {
	return &SliceIterator{tuples: tuples}
}

// Next implements TupleIterator.
func (it *SliceIterator) Next() (TupleID, bool) {
	if it.pos >= len(it.tuples) {
		return 0, false
	}
	t := it.tuples[it.pos]
	it.pos++
	return t, true
}

// Source is one candidate data source. Cardinality counts tuples *stored* at
// the source (with multiplicity, as reported by the source); the Signature
// summarizes the distinct tuples for union estimation.
type Source struct {
	// ID is the dense index of the source within its Universe; assigned by
	// Universe.Add.
	ID schema.SourceID
	// Name is a human-readable label (e.g. a site's hostname).
	Name string
	// Schema is the source's exported query schema.
	Schema schema.Schema
	// Cardinality is the number of tuples at the source, or -1 when the
	// source does not cooperate.
	Cardinality int64
	// Signature is the source's PCSA synopsis, or nil when the source does
	// not cooperate.
	Signature *pcsa.Signature
	// AttrSignatures optionally holds one MinHash synopsis per schema
	// attribute, sketching that attribute's value set. They enable the
	// data-based attribute similarity of §3 ("Match(S) can use any
	// attribute similarity measure, whether it is schema based or data
	// based"); nil or per-slot nil means the source did not provide one.
	AttrSignatures []*minhash.Signature
	// Characteristics holds named non-functional properties (§5): MTTF,
	// latency, fees, reputation, … as name/value pairs in the source's own
	// order, each name at most once; Characteristic looks one up by name.
	// Values are finite non-negative reals of any magnitude (Universe.Add
	// refuses anything else, and a repeated name); QEF aggregators
	// normalize them per-universe. Like the synopses, they are fixed once
	// the source is in a universe: the universe memoizes their normalized
	// columns, and sources may share one slice.
	Characteristics []Characteristic
}

// Characteristic is one named characteristic value of a source.
type Characteristic struct {
	Name  string
	Value float64
}

// Cooperative reports whether the source provided the data synopses µBE
// needs for the coverage and redundancy QEFs.
func (s *Source) Cooperative() bool { return s.Cardinality >= 0 && s.Signature != nil }

// AttrSignature returns the MinHash synopsis of attribute a's value set, or
// nil when the source did not provide one.
func (s *Source) AttrSignature(a int) *minhash.Signature {
	if a < 0 || a >= len(s.AttrSignatures) {
		return nil
	}
	return s.AttrSignatures[a]
}

// Characteristic returns the named characteristic and whether it is set.
func (s *Source) Characteristic(name string) (float64, bool) {
	for _, c := range s.Characteristics {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// SetCharacteristic sets a named characteristic, replacing its value if the
// source has it already. Set characteristics before the source joins a
// universe.
func (s *Source) SetCharacteristic(name string, v float64) {
	for i, c := range s.Characteristics {
		if c.Name == name {
			s.Characteristics[i].Value = v
			return
		}
	}
	s.Characteristics = append(s.Characteristics, Characteristic{Name: name, Value: v})
}

// FromTuples builds a cooperative source by scanning its tuples once,
// computing the cardinality and PCSA signature exactly as a cooperating
// source would (§4: "computing the hash signature requires scanning the data
// only once").
func FromTuples(name string, sch schema.Schema, it TupleIterator, cfg pcsa.Config) (*Source, error) {
	sig, err := pcsa.New(cfg)
	if err != nil {
		return nil, err
	}
	var n int64
	for {
		t, ok := it.Next()
		if !ok {
			break
		}
		sig.AddUint64(t)
		n++
	}
	return &Source{
		ID:          -1,
		Name:        name,
		Schema:      sch,
		Cardinality: n,
		Signature:   sig,
	}, nil
}

// Uncooperative builds a source that exports only its schema and
// characteristics.
func Uncooperative(name string, sch schema.Schema) *Source {
	return &Source{ID: -1, Name: name, Schema: sch, Cardinality: -1}
}

// Universe is the set U = {s_1 … s_N} of all candidate sources. Sources are
// added once, then the universe is effectively immutable; the aggregate
// synopses used as QEF denominators are cached behind an atomic pointer —
// builders call Precompute so every Coverage.Eval afterwards is a lock-free
// load instead of re-deriving the cache under a mutex.
//
// The universe owns one attribute-name vocabulary (Vocab), and every
// source's schema holds ids into it: Add moves a schema built on any other
// vocabulary onto it by name. The vocabulary only grows; names of removed
// sources stay interned.
//
// The union of all signatures is not maintained across mutations. The first
// aggregate read after a mutation epoch (a build, a churn tick) ORs the live
// signatures into one signature, reading each signature's words once. A
// subtractable counting union kept current instead pays a lane update per set
// bit of every signature added, removed or replaced, which costs more than
// the one OR at every measured shape (DESIGN.md, "Online integration").
//
// Concurrency: Add (and any other mutation, interning into Vocab included)
// must happen-before concurrent use. After that, all read methods —
// including the cached aggregates — are safe to call from multiple
// goroutines, which is what the parallel objective evaluator (internal/opt)
// relies on.
type Universe struct {
	sources []*Source
	sigCfg  pcsa.Config
	vocab   *schema.Vocab
	// schemaVersion counts the schema-changing mutations; see SchemaVersion.
	schemaVersion uint64

	// agg caches the universe-wide aggregates; nil after a mutation. Reads
	// are a single atomic load; the (re)computation is serialized by mu.
	agg atomic.Pointer[aggregates]
	mu  sync.Mutex // guards the aggregate recomputation

	// chars memoizes the characteristic ranges and columns; nil after a
	// mutation, so invalidating takes no lock.
	chars atomic.Pointer[charMemo]
}

// charMemo holds one universe version's characteristic (min, max) ranges and
// the normalized columns built from them.
type charMemo struct {
	mu     sync.Mutex
	ranges map[string][2]float64
	cols   map[string][]float64
}

// aggregates are the universe-wide QEF denominators, computed in one pass
// and shared immutably.
type aggregates struct {
	totalCard   int64
	unionAllEst float64
}

// NewUniverse returns an empty universe whose cooperative sources use the
// given signature configuration.
func NewUniverse(cfg pcsa.Config) *Universe {
	return &Universe{sigCfg: cfg, vocab: schema.NewVocab()}
}

// SignatureConfig returns the signature configuration shared by the
// universe's cooperative sources.
func (u *Universe) SignatureConfig() pcsa.Config { return u.sigCfg }

// Vocab returns the universe's attribute-name vocabulary. Schemas built on
// it (schema.FromIDs) join the universe without being moved.
func (u *Universe) Vocab() *schema.Vocab { return u.vocab }

// ErrSignatureConfig is returned when a cooperative source's signature does
// not match the universe's configuration.
var ErrSignatureConfig = errors.New("source: signature config does not match universe")

// ErrCharacteristic is returned when a source carries a characteristic
// that is negative, NaN or infinite, or names one characteristic twice.
// Normalization divides by a characteristic's range, which such a value
// would overflow or poison.
var ErrCharacteristic = errors.New("source: invalid characteristic")

// Add inserts s into the universe, assigns its ID, and returns it. A schema
// on another vocabulary is re-homed onto the universe's (same names, new
// ids) and stored on s. Otherwise the universe keeps s and its signature as
// they are, without copying: synopses and characteristics are immutable once
// added, so one signature may be shared by several sources or universes
// (probe.ReprobeUniverse and watch's cold reference re-add the same
// *pcsa.Signature), and the GC reclaims it once no source holds it.
func (u *Universe) Add(s *Source) (schema.SourceID, error) {
	if s.Signature != nil && s.Signature.Config() != u.sigCfg {
		return -1, ErrSignatureConfig
	}
	if err := checkCharacteristics(s.Characteristics); err != nil {
		return -1, err
	}
	s.Schema = s.Schema.Rehome(u.vocab)
	s.ID = schema.SourceID(len(u.sources))
	u.sources = append(u.sources, s)
	u.schemaVersion++
	u.invalidate()
	return s.ID, nil
}

// checkCharacteristics reports the alphabetically first characteristic that
// is not a finite non-negative real, so the error does not depend on the
// slice's order, or else the alphabetically first name that repeats.
func checkCharacteristics(chars []Characteristic) error {
	bad := -1
	for i, c := range chars {
		if (c.Value < 0 || math.IsNaN(c.Value) || math.IsInf(c.Value, 0)) && (bad < 0 || c.Name < chars[bad].Name) {
			bad = i
		}
	}
	if bad >= 0 {
		return fmt.Errorf("%w: %q = %v", ErrCharacteristic, chars[bad].Name, chars[bad].Value)
	}
	if name, ok := repeatedName(chars); ok {
		return fmt.Errorf("%w: %q is set twice", ErrCharacteristic, name)
	}
	return nil
}

// repeatedName returns the alphabetically first name that two of chars
// carry. A source has a handful of characteristics, which it compares
// pairwise; a long list, such as a hostile universe file's, sorts a copy of
// its names instead of paying a quadratic scan.
func repeatedName(chars []Characteristic) (string, bool) {
	if len(chars) > 16 {
		names := make([]string, len(chars))
		for i, c := range chars {
			names[i] = c.Name
		}
		sort.Strings(names)
		for i := 1; i < len(names); i++ {
			if names[i] == names[i-1] {
				return names[i], true
			}
		}
		return "", false
	}
	name, found := "", false
	for i, c := range chars {
		for _, d := range chars[:i] {
			if c.Name == d.Name && (!found || c.Name < name) {
				name, found = c.Name, true
			}
		}
	}
	return name, found
}

// ErrUnknownSource is returned by the mutating universe operations when a
// SourceID is out of range.
var ErrUnknownSource = errors.New("source: unknown source id")

// Remove deletes the given sources from the universe and compacts IDs so
// they stay dense (ID == slice index, which every downstream layer assumes).
// It returns the kept-ID list in ReprobeUniverse's convention —
// kept[newID] == oldID — so callers can remap constraints and solutions.
// Removed sources get ID -1; duplicate drop entries are tolerated.
func (u *Universe) Remove(drop []schema.SourceID) ([]schema.SourceID, error) {
	set := make(map[schema.SourceID]bool, len(drop))
	for _, id := range drop {
		if id < 0 || int(id) >= len(u.sources) {
			return nil, fmt.Errorf("%w: %d (universe has %d sources)", ErrUnknownSource, id, len(u.sources))
		}
		set[id] = true
	}
	if len(set) == 0 {
		return u.IDs(), nil
	}
	kept := make([]schema.SourceID, 0, len(u.sources)-len(set))
	out := u.sources[:0]
	for old, s := range u.sources {
		if set[schema.SourceID(old)] {
			s.ID = -1
			continue
		}
		s.ID = schema.SourceID(len(out))
		out = append(out, s)
		kept = append(kept, schema.SourceID(old))
	}
	for i := len(out); i < len(u.sources); i++ {
		u.sources[i] = nil // release the dropped tails
	}
	u.sources = out
	u.schemaVersion++
	u.invalidate()
	return kept, nil
}

// SchemaVersion counts the universe's schema-changing mutations: every Add,
// and every Remove that removes a source. Anything derived from the sources'
// schemas by id, such as a match.Matcher's similarity rows, is current
// exactly while the count is unchanged. UpdateSynopsis and Degrade change no
// schema and leave it alone.
func (u *Universe) SchemaVersion() uint64 { return u.schemaVersion }

// UpdateSynopsis replaces a source's data synopses in place — the source
// keeps its ID, schema, and characteristics, but reports a new cardinality
// and signature (a drifted vocabulary, or a recovered source re-exporting
// its data). Passing cardinality -1 and a nil signature degrades the source
// to uncooperative. The source keeps sig as Add does.
func (u *Universe) UpdateSynopsis(id schema.SourceID, cardinality int64, sig *pcsa.Signature) error {
	if id < 0 || int(id) >= len(u.sources) {
		return fmt.Errorf("%w: %d (universe has %d sources)", ErrUnknownSource, id, len(u.sources))
	}
	if sig != nil && sig.Config() != u.sigCfg {
		return ErrSignatureConfig
	}
	s := u.sources[id]
	s.Cardinality = cardinality
	s.Signature = sig
	u.invalidate()
	return nil
}

// Degrade marks a source uncooperative in place: it keeps its schema and
// characteristics (it can still be selected, per §2.1) but loses its
// synopses, exactly as probe demotes a source that fails its handshake
// budget.
func (u *Universe) Degrade(id schema.SourceID) error {
	return u.UpdateSynopsis(id, -1, nil)
}

// invalidate drops the cached aggregates and characteristic memos after a
// mutation, without a lock. It loads each pointer before storing to it: in a
// run of Adds both are already nil after the first, and a load is cheaper
// than a store.
func (u *Universe) invalidate() {
	if u.agg.Load() != nil {
		u.agg.Store(nil)
	}
	if u.chars.Load() != nil {
		u.chars.Store(nil)
	}
}

// charMemo returns the characteristic memo of the current universe version,
// making it on first use after a mutation.
func (u *Universe) charMemo() *charMemo {
	if c := u.chars.Load(); c != nil {
		return c
	}
	c := &charMemo{ranges: make(map[string][2]float64), cols: make(map[string][]float64)}
	if u.chars.CompareAndSwap(nil, c) {
		return c
	}
	return u.chars.Load()
}

// Precompute eagerly materializes the universe-wide aggregates (total
// cardinality, union-of-all estimate) so the hot QEF read paths never pay
// the first-computation cost mid-solve. Builders (synthetic generation,
// probe.BuildUniverse/ReprobeUniverse, session load) call it once after the
// last Add; it is also safe to call at any time.
func (u *Universe) Precompute() { u.aggregates() }

// aggregates returns the cached universe-wide aggregates, computing them on
// first use after a mutation. The fast path is one atomic load.
func (u *Universe) aggregates() *aggregates {
	if a := u.agg.Load(); a != nil {
		return a
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if a := u.agg.Load(); a != nil { // raced with another recompute
		return a
	}
	a := &aggregates{}
	withSig := false
	for _, s := range u.sources {
		if s.Cardinality > 0 {
			a.totalCard += s.Cardinality
		}
		if s.Signature != nil {
			withSig = true
		}
	}
	if withSig {
		a.unionAllEst = u.unionAllLocked()
	}
	u.agg.Store(a)
	return a
}

// unionAllLocked ORs every live signature into one signature and returns its
// estimate: the rho-sum kernel of pcsa.Union, so the value is bit-identical
// to a full merge. mu must be held.
func (u *Universe) unionAllLocked() float64 {
	all, err := pcsa.New(u.sigCfg)
	for _, s := range u.sources {
		if err == nil && s.Signature != nil {
			err = all.MergeFrom(s.Signature)
		}
	}
	if err != nil {
		// Unreachable: Add and UpdateSynopsis admit only signatures of the
		// universe's configuration.
		panic(fmt.Sprintf("source: union of universe signatures: %v", err))
	}
	return all.Estimate()
}

// Len returns the number of sources N.
func (u *Universe) Len() int { return len(u.sources) }

// Source returns the source with the given ID; it panics on an invalid ID,
// matching slice-index semantics.
func (u *Universe) Source(id schema.SourceID) *Source { return u.sources[id] }

// Sources returns all sources in ID order. The slice must not be modified.
func (u *Universe) Sources() []*Source { return u.sources }

// AttrName implements schema.Namer.
func (u *Universe) AttrName(r schema.AttrRef) string {
	return u.sources[r.Source].Schema.Name(r.Attr)
}

// NumAttrs returns the total number of attributes across all sources.
func (u *Universe) NumAttrs() int {
	n := 0
	for _, s := range u.sources {
		n += s.Schema.Len()
	}
	return n
}

// TotalCardinality returns Σ_{t∈U} |t| over cooperative sources — the
// denominator of the Card QEF.
func (u *Universe) TotalCardinality() int64 { return u.aggregates().totalCard }

// UnionAllEstimate returns the estimated |∪_{t∈U} t| over signature-bearing
// sources — the denominator of the Coverage QEF. It returns 0 when no source
// exports a signature. After Precompute the read is one atomic load.
func (u *Universe) UnionAllEstimate() float64 { return u.aggregates().unionAllEst }

// SumCardinality returns Σ_{s∈ids} |s| over cooperative sources.
func (u *Universe) SumCardinality(ids []schema.SourceID) int64 {
	var sum int64
	for _, id := range ids {
		if c := u.sources[id].Cardinality; c > 0 {
			sum += c
		}
	}
	return sum
}

// CharacteristicRange returns (min, max) of the named characteristic over
// all sources that define it, used for normalization by aggregators (§5).
// ok is false when no source defines the characteristic.
func (u *Universe) CharacteristicRange(name string) (min, max float64, ok bool) {
	c := u.charMemo()
	c.mu.Lock()
	defer c.mu.Unlock()
	return u.characteristicRangeLocked(c, name)
}

// characteristicRangeLocked is CharacteristicRange with c.mu held.
func (u *Universe) characteristicRangeLocked(c *charMemo, name string) (min, max float64, ok bool) {
	if r, hit := c.ranges[name]; hit {
		return r[0], r[1], true
	}
	first := true
	for _, s := range u.sources {
		v, has := s.Characteristic(name)
		if !has {
			continue
		}
		if first {
			min, max, first = v, v, false
			continue
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if first {
		return 0, 0, false
	}
	c.ranges[name] = [2]float64{min, max}
	return min, max, true
}

// NormalizedCharacteristic returns the named characteristic of every source,
// normalized into [0,1] by the universe range and indexed by SourceID: 0 when
// no source defines it or this source lacks it (the minimum), 1 when the
// range is degenerate (max == min: no basis for discrimination, so no
// penalty), and (v − min)/(max − min) otherwise. The column is built once per
// universe version and shared, so QEF aggregators pay one lookup per
// evaluation instead of one per source. The slice must not be modified.
func (u *Universe) NormalizedCharacteristic(name string) []float64 {
	c := u.charMemo()
	c.mu.Lock()
	defer c.mu.Unlock()
	if col, hit := c.cols[name]; hit {
		return col
	}
	col := make([]float64, len(u.sources))
	if min, max, ok := u.characteristicRangeLocked(c, name); ok {
		for i, s := range u.sources {
			v, has := s.Characteristic(name)
			switch {
			case !has:
			case max <= min:
				col[i] = 1
			default:
				col[i] = (v - min) / (max - min)
			}
		}
	}
	c.cols[name] = col
	return col
}

// CharacteristicNames returns the sorted set of characteristic names defined
// by at least one source.
func (u *Universe) CharacteristicNames() []string {
	set := make(map[string]struct{})
	for _, s := range u.sources {
		for _, c := range s.Characteristics {
			set[c.Name] = struct{}{}
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SignatureBytes returns the bitmap bytes of the signatures the universe's
// sources hold — the working-set number scale benchmarks report. A
// signature shared by two sources counts twice.
func (u *Universe) SignatureBytes() int {
	total := 0
	for _, s := range u.sources {
		if s.Signature != nil {
			total += s.Signature.SizeBytes()
		}
	}
	return total
}

// IDs returns all source IDs, 0..N-1.
func (u *Universe) IDs() []schema.SourceID {
	ids := make([]schema.SourceID, len(u.sources))
	for i := range ids {
		ids[i] = schema.SourceID(i)
	}
	return ids
}
