// Package schema defines the schema-level vocabulary of µBE: source schemas
// and their attributes, global attributes (GAs), and mediated schemas, with
// the validity and subsumption rules of §2 (Definitions 1–3 of the paper).
//
// µBE performs 1:1 matching over relational-style schemas: the schema of
// source i is a list of attributes (a_i1 … a_in_i). A GA is a set of
// attributes from different sources that all express the same concept; a
// mediated schema is a set of pairwise-disjoint GAs.
package schema

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// SourceID identifies a data source within a Universe. IDs are dense indexes
// assigned by the universe ([0, N)).
type SourceID int

// AttrRef identifies one attribute of one source: attribute Attr (an index
// into the source's schema) of source Source.
type AttrRef struct {
	Source SourceID
	Attr   int
}

// String renders the reference as "s<source>.a<attr>".
func (r AttrRef) String() string { return fmt.Sprintf("s%d.a%d", r.Source, r.Attr) }

// Less orders references by (Source, Attr).
func (r AttrRef) Less(o AttrRef) bool {
	if r.Source != o.Source {
		return r.Source < o.Source
	}
	return r.Attr < o.Attr
}

// Compare orders references by (Source, Attr), returning -1, 0, or +1.
func (r AttrRef) Compare(o AttrRef) int {
	switch {
	case r.Source != o.Source:
		if r.Source < o.Source {
			return -1
		}
		return 1
	case r.Attr != o.Attr:
		if r.Attr < o.Attr {
			return -1
		}
		return 1
	}
	return 0
}

// Vocab is an append-only vocabulary of attribute names: each distinct name
// gets a dense int32 id in the order it is first interned, and keeps it for
// the vocabulary's life. A source.Universe owns one, shared by all its
// sources' schemas, so a name repeated across sources is stored and hashed
// once. Intern must happen-before concurrent reads, as Universe.Add must.
type Vocab struct {
	ids   map[string]int32
	names []string
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab { return &Vocab{ids: make(map[string]int32)} }

// Intern returns name's id, giving it the next id if it is new.
func (v *Vocab) Intern(name string) int32 {
	if id, ok := v.ids[name]; ok {
		return id
	}
	id := int32(len(v.names))
	v.ids[name] = id
	v.names = append(v.names, name)
	return id
}

// Name returns the name with the given id.
func (v *Vocab) Name(id int32) string { return v.names[id] }

// Len returns the number of names interned so far.
func (v *Vocab) Len() int { return len(v.names) }

// Schema is the exported schema of a single data source: an ordered list of
// attribute names, held as ids into a vocabulary. A name may repeat; the
// schema keeps every position.
type Schema struct {
	vocab *Vocab
	ids   []int32
}

// NewSchema returns a schema over the given attribute names, on a private
// vocabulary. Universe.Add moves it onto the universe's vocabulary.
func NewSchema(names ...string) Schema {
	v := NewVocab()
	ids := make([]int32, len(names))
	for i, n := range names {
		ids[i] = v.Intern(n)
	}
	return Schema{vocab: v, ids: ids}
}

// FromIDs adopts ids, names interned in v, as a schema without copying. The
// caller never mutates ids afterwards; schemas may share one ids slice.
func FromIDs(v *Vocab, ids []int32) Schema { return Schema{vocab: v, ids: ids} }

// Rehome returns the schema on v: s itself when it is already there, else a
// copy whose ids are its names interned in v.
func (s Schema) Rehome(v *Vocab) Schema {
	if s.vocab == v {
		return s
	}
	ids := make([]int32, len(s.ids))
	for i, id := range s.ids {
		ids[i] = v.Intern(s.vocab.Name(id))
	}
	return Schema{vocab: v, ids: ids}
}

// Vocab returns the vocabulary the schema's ids index.
func (s Schema) Vocab() *Vocab { return s.vocab }

// ID returns the vocabulary id of attribute i's name.
func (s Schema) ID(i int) int32 { return s.ids[i] }

// Len returns the number of attributes.
func (s Schema) Len() int { return len(s.ids) }

// Name returns the name of attribute i.
func (s Schema) Name(i int) string { return s.vocab.Name(s.ids[i]) }

// IndexOf returns the index of the first attribute with the given name, or
// -1.
func (s Schema) IndexOf(name string) int {
	for i, id := range s.ids {
		if s.vocab.Name(id) == name {
			return i
		}
	}
	return -1
}

// String renders the schema as "{a, b, c}".
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i := range s.ids {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.Name(i))
	}
	b.WriteByte('}')
	return b.String()
}

// GA is a Global Attribute (Definition 1): a set of attributes, each from a
// distinct source, that map to the same mediated-schema attribute. The
// attribute set is kept sorted by (Source, Attr); use Add or NewGA to
// maintain the invariant.
type GA struct {
	refs []AttrRef
}

// NewGA builds a GA from the given references. The references are sorted and
// deduplicated; validity (one attribute per source) is NOT enforced here —
// use Valid to check it, matching the paper's definition which separates a
// GA from a *valid* GA.
func NewGA(refs ...AttrRef) GA {
	g := GA{refs: append([]AttrRef(nil), refs...)}
	slices.SortFunc(g.refs, AttrRef.Compare)
	// Deduplicate exact duplicates.
	out := g.refs[:0]
	for i, r := range g.refs {
		if i == 0 || r != g.refs[i-1] {
			out = append(out, r)
		}
	}
	g.refs = out
	return g
}

// GAFromSorted adopts refs as a GA without copying or sorting. The caller
// guarantees refs is sorted by (Source, Attr), free of duplicates, and never
// mutated afterwards. It exists for the matcher's arena-backed clustering hot
// path; everything else should use NewGA.
func GAFromSorted(refs []AttrRef) GA { return GA{refs: refs} }

// Refs returns the GA's attribute references in sorted order. The returned
// slice must not be modified.
func (g GA) Refs() []AttrRef { return g.refs }

// Size returns the number of attributes in the GA.
func (g GA) Size() int { return len(g.refs) }

// Empty reports whether the GA contains no attributes.
func (g GA) Empty() bool { return len(g.refs) == 0 }

// Valid reports whether g is a valid GA per Definition 1: non-empty and
// containing at most one attribute from any source.
func (g GA) Valid() bool {
	if len(g.refs) == 0 {
		return false
	}
	for i := 1; i < len(g.refs); i++ {
		if g.refs[i].Source == g.refs[i-1].Source {
			return false
		}
	}
	return true
}

// Sources returns the set of sources contributing to g.
func (g GA) Sources() map[SourceID]struct{} {
	m := make(map[SourceID]struct{}, len(g.refs))
	for _, r := range g.refs {
		m[r.Source] = struct{}{}
	}
	return m
}

// HasSource reports whether any attribute of g comes from source id.
func (g GA) HasSource(id SourceID) bool {
	for _, r := range g.refs {
		if r.Source == id {
			return true
		}
	}
	return false
}

// Contains reports whether g contains the reference r.
func (g GA) Contains(r AttrRef) bool {
	i := sort.Search(len(g.refs), func(i int) bool { return !g.refs[i].Less(r) })
	return i < len(g.refs) && g.refs[i] == r
}

// ContainsAll reports whether every reference of o is in g (o ⊆ g).
func (g GA) ContainsAll(o GA) bool {
	for _, r := range o.refs {
		if !g.Contains(r) {
			return false
		}
	}
	return true
}

// Intersects reports whether g and o share any attribute reference.
func (g GA) Intersects(o GA) bool {
	i, j := 0, 0
	for i < len(g.refs) && j < len(o.refs) {
		switch {
		case g.refs[i] == o.refs[j]:
			return true
		case g.refs[i].Less(o.refs[j]):
			i++
		default:
			j++
		}
	}
	return false
}

// Union returns the GA containing the attributes of both g and o. The result
// may be invalid (two attributes from one source); callers merging clusters
// must check CanMerge or Valid.
func (g GA) Union(o GA) GA {
	return NewGA(append(append([]AttrRef(nil), g.refs...), o.refs...)...)
}

// CanMerge reports whether g ∪ o is a valid GA, i.e. g and o draw from
// disjoint source sets (Algorithm 1's merge precondition).
func (g GA) CanMerge(o GA) bool {
	i, j := 0, 0
	for i < len(g.refs) && j < len(o.refs) {
		switch {
		case g.refs[i].Source == o.refs[j].Source:
			return false
		case g.refs[i].Source < o.refs[j].Source:
			i++
		default:
			j++
		}
	}
	return true
}

// Equal reports whether g and o contain exactly the same references.
func (g GA) Equal(o GA) bool {
	if len(g.refs) != len(o.refs) {
		return false
	}
	for i := range g.refs {
		if g.refs[i] != o.refs[i] {
			return false
		}
	}
	return true
}

// Compare orders GAs canonically: lexicographically over their sorted
// reference lists by (Source, Attr), shorter prefix first. Two GAs compare
// equal only when they contain exactly the same references. This numeric
// order is the canonical order of mediated schemas (NewMediated); unlike
// comparing Key() strings it allocates nothing and orders source IDs
// numerically (source 9 before source 10).
func (g GA) Compare(o GA) int {
	n := len(g.refs)
	if len(o.refs) < n {
		n = len(o.refs)
	}
	for i := 0; i < n; i++ {
		if c := g.refs[i].Compare(o.refs[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(g.refs) < len(o.refs):
		return -1
	case len(g.refs) > len(o.refs):
		return 1
	}
	return 0
}

// Key returns a canonical string key for the GA, usable as a map key.
func (g GA) Key() string {
	var b strings.Builder
	for i, r := range g.refs {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%d.%d", r.Source, r.Attr)
	}
	return b.String()
}

// String renders the GA as "[s0.a1 s3.a0]".
func (g GA) String() string {
	parts := make([]string, len(g.refs))
	for i, r := range g.refs {
		parts[i] = r.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Mediated is a mediated schema (Definition 2): a set of GAs. µBE does not
// name GAs; a GA *is* the set of source attributes that map to it.
type Mediated struct {
	GAs []GA
}

// NewMediated builds a mediated schema over the given GAs, sorted into a
// canonical order for deterministic output.
func NewMediated(gas ...GA) Mediated {
	m := Mediated{GAs: append([]GA(nil), gas...)}
	slices.SortFunc(m.GAs, GA.Compare)
	return m
}

// Len returns the number of GAs.
func (m Mediated) Len() int { return len(m.GAs) }

// Disjoint reports whether no attribute appears in two GAs (first half of
// Definition 2's validity: the GAs represent different concepts).
func (m Mediated) Disjoint() bool {
	seen := make(map[AttrRef]struct{})
	for _, g := range m.GAs {
		for _, r := range g.Refs() {
			if _, dup := seen[r]; dup {
				return false
			}
			seen[r] = struct{}{}
		}
	}
	return true
}

// Spans reports whether every source in ids contributes at least one
// attribute to some GA (second half of Definition 2's validity).
func (m Mediated) Spans(ids []SourceID) bool {
	covered := make(map[SourceID]struct{})
	for _, g := range m.GAs {
		for _, r := range g.Refs() {
			covered[r.Source] = struct{}{}
		}
	}
	for _, id := range ids {
		if _, ok := covered[id]; !ok {
			return false
		}
	}
	return true
}

// ValidOn reports whether m is a valid mediated schema on the sources ids:
// every GA is individually valid, the GAs are pairwise disjoint, and m spans
// every source in ids (Definition 2).
func (m Mediated) ValidOn(ids []SourceID) bool {
	for _, g := range m.GAs {
		if !g.Valid() {
			return false
		}
	}
	return m.Disjoint() && m.Spans(ids)
}

// Subsumes reports whether m subsumes o (Definition 3, o ⊑ m): every GA of o
// is contained in some GA of m.
func (m Mediated) Subsumes(o Mediated) bool {
	for _, g2 := range o.GAs {
		found := false
		for _, g1 := range m.GAs {
			if g1.ContainsAll(g2) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// SourceSet returns the set of sources that contribute to any GA of m.
func (m Mediated) SourceSet() map[SourceID]struct{} {
	set := make(map[SourceID]struct{})
	for _, g := range m.GAs {
		for _, r := range g.Refs() {
			set[r.Source] = struct{}{}
		}
	}
	return set
}

// String renders the schema one GA per line.
func (m Mediated) String() string {
	parts := make([]string, len(m.GAs))
	for i, g := range m.GAs {
		parts[i] = g.String()
	}
	return strings.Join(parts, "\n")
}

// Namer resolves attribute references to names; *source.Universe implements
// it. It lets this package render human-readable mediated schemas without
// depending on the source package.
type Namer interface {
	AttrName(r AttrRef) string
}

// Render renders the mediated schema with attribute names resolved through n,
// e.g. "GA0: {s3:author, s17:writer}".
func (m Mediated) Render(n Namer) string {
	var b strings.Builder
	for i, g := range m.GAs {
		fmt.Fprintf(&b, "GA%d: {", i)
		for j, r := range g.Refs() {
			if j > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "s%d:%s", r.Source, n.AttrName(r))
		}
		b.WriteString("}\n")
	}
	return b.String()
}
