package match

import (
	"maps"
	"slices"

	"mube/internal/schema"
	"mube/internal/source"
	"mube/internal/strutil"
)

// interning maps attributes to dense ids of their normalized names. Ids are
// numbered in first-seen order over sources and attributes, so they are a
// pure function of the universes interned so far, whatever order their
// vocabularies hold the names in. Read-only once a matcher is built; Rebind
// extends a clone.
type interning struct {
	// vocab is the vocabulary row indexes, that of the universe last
	// interned.
	vocab *schema.Vocab
	// row[v] is the name id of vocab's name v, or -1 while no attribute has
	// used it, so a spelling is normalized once however many attributes
	// share it.
	row   []int32
	ids   map[string]int // normalized name → name id
	names []string       // name id → normalized name
}

func newInterning() interning {
	return interning{ids: make(map[string]int)}
}

// clone returns an interning that can be extended without touching in.
func (in interning) clone() interning {
	return interning{
		vocab: in.vocab,
		row:   slices.Clone(in.row),
		ids:   maps.Clone(in.ids),
		names: in.names[:len(in.names):len(in.names)], // append must copy
	}
}

// assign interns every attribute name of u and returns nameID[s][a], the
// name id of attribute a of source s. The row follows u's vocabulary: it
// starts over when the vocabulary is another one, and grows with it.
func (in *interning) assign(u *source.Universe) [][]int {
	v := u.Vocab()
	if v != in.vocab {
		in.vocab, in.row = v, in.row[:0]
	}
	for len(in.row) < v.Len() {
		in.row = append(in.row, -1)
	}
	total := 0
	for _, s := range u.Sources() {
		total += s.Schema.Len()
	}
	flat := make([]int, total)
	nameID := make([][]int, u.Len())
	for si, s := range u.Sources() {
		row := flat[:s.Schema.Len():s.Schema.Len()]
		flat = flat[len(row):]
		nameID[si] = row
		if s.Schema.Vocab() != v {
			// A schema replaced after Add is off the universe's vocabulary.
			for ai := range row {
				row[ai] = in.nameOf(s.Schema.Name(ai))
			}
			continue
		}
		for ai := range row {
			vid := s.Schema.ID(ai)
			id := in.row[vid]
			if id < 0 {
				id = int32(in.nameOf(v.Name(vid)))
				in.row[vid] = id
			}
			row[ai] = int(id)
		}
	}
	return nameID
}

// nameOf returns the name id of a spelling's normalized name, giving the
// name the next id if it is new.
func (in *interning) nameOf(spelling string) int {
	norm := strutil.Normalize(spelling)
	id, ok := in.ids[norm]
	if !ok {
		id = len(in.names)
		in.ids[norm] = id
		in.names = append(in.names, norm)
	}
	return id
}

// nameTable returns the packed upper-triangular similarity table over
// m.names. Entries among the first prevD names are copied from prev, a
// table over those names, and only pairs involving a later name are scored.
//
// Gram-set measures never call Sim: names are visited in id order, and each
// new name's gram postings (the earlier names carrying each of its grams)
// yield its overlap count with every earlier name it shares a gram with.
// Those pairs are scored from the counts through the measure's own
// expression, so entries are bit-identical to Sim; every other pair shares
// no gram and stays exactly 0. The cost is O(d + Σ_g |postings_g|²) counter
// increments instead of d(d−1)/2 Sim calls. Other measures score every new
// pair with Sim.
func (m *Matcher) nameTable(prev []float32, prevD int) []float32 {
	d := len(m.names)
	packed := func(i, j int) int { return i*d - i*(i-1)/2 + (j - i) }
	table := make([]float32, d*(d+1)/2)
	for i := 0; i < prevD; i++ {
		from := i*prevD - i*(i-1)/2
		copy(table[packed(i, i):], prev[from:from+prevD-i])
	}
	for i := prevD; i < d; i++ {
		table[packed(i, i)] = 1
	}

	gramN, score, ok := strutil.GramMeasure(m.cfg.Similarity)
	if !ok {
		for i := 0; i < d; i++ {
			for j := max(i+1, prevD); j < d; j++ {
				table[packed(i, j)] = float32(m.cfg.Similarity.Sim(m.names[i], m.names[j]))
			}
		}
		return table
	}

	// Every name's gram set as sorted gram ids in [0, distinct), and
	// postings[start[x]:end[x]] lists, ascending, the names visited so far
	// that carry gram x.
	off, ids, distinct := strutil.GramSets(m.names, gramN)
	start := make([]int32, distinct+1)
	for _, x := range ids {
		start[x+1]++
	}
	for x := 0; x < distinct; x++ {
		start[x+1] += start[x]
	}
	end := append([]int32(nil), start[:distinct]...)
	postings := make([]int32, len(ids))
	inter := make([]int32, d)
	var touched []int32
	for i := 0; i < d; i++ {
		set := ids[off[i]:off[i+1]]
		if i >= prevD {
			for _, x := range set {
				for _, j := range postings[start[x]:end[x]] {
					if inter[j] == 0 {
						touched = append(touched, j)
					}
					inter[j]++
				}
			}
			for _, j := range touched {
				na := int(off[j+1] - off[j])
				table[packed(int(j), i)] = float32(score(int(inter[j]), na, len(set)))
				inter[j] = 0
			}
			touched = touched[:0]
		}
		for _, x := range set {
			postings[end[x]] = int32(i)
			end[x]++
		}
	}
	return table
}
