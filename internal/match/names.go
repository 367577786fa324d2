package match

import (
	"maps"

	"mube/internal/source"
	"mube/internal/strutil"
)

// interning maps attribute spellings to dense ids of their normalized names.
// Ids are numbered in first-seen order over sources and attributes, so they
// are a pure function of the universes interned so far. Read-only once a
// matcher is built; Rebind extends a clone.
type interning struct {
	// raw caches each distinct spelling's name id, so a spelling is
	// normalized once however many attributes share it.
	raw   map[string]int
	ids   map[string]int // normalized name → name id
	names []string       // name id → normalized name
}

func newInterning() interning {
	return interning{raw: make(map[string]int), ids: make(map[string]int)}
}

// clone returns an interning that can be extended without touching in.
func (in interning) clone() interning {
	return interning{
		raw:   maps.Clone(in.raw),
		ids:   maps.Clone(in.ids),
		names: in.names[:len(in.names):len(in.names)], // append must copy
	}
}

// assign interns every attribute name of u and returns nameID[s][a], the
// name id of attribute a of source s.
func (in *interning) assign(u *source.Universe) [][]int {
	total := 0
	for _, s := range u.Sources() {
		total += s.Schema.Len()
	}
	flat := make([]int, total)
	nameID := make([][]int, u.Len())
	for si, s := range u.Sources() {
		row := flat[:s.Schema.Len():s.Schema.Len()]
		flat = flat[len(row):]
		for ai := range row {
			spelling := s.Schema.Name(ai)
			id, ok := in.raw[spelling]
			if !ok {
				norm := strutil.Normalize(spelling)
				if id, ok = in.ids[norm]; !ok {
					id = len(in.names)
					in.ids[norm] = id
					in.names = append(in.names, norm)
				}
				in.raw[spelling] = id
			}
			row[ai] = id
		}
		nameID[si] = row
	}
	return nameID
}

// nameGrams holds every interned name's n-gram set as sorted gram ids
// (strutil.GramSets). The name-table fill and the candidate index both read
// it, so grams are extracted once per distinct name.
type nameGrams struct {
	off, ids []int32
	distinct int // ids lie in [0, distinct)
	score    func(inter, na, nb int) float64
}

// newNameGrams returns the gram sets of names under sim, or nil when sim is
// not a gram-set measure (strutil.GramMeasure).
func newNameGrams(names []string, sim strutil.Similarity) *nameGrams {
	n, score, ok := strutil.GramMeasure(sim)
	if !ok {
		return nil
	}
	g := &nameGrams{score: score}
	g.off, g.ids, g.distinct = strutil.GramSets(names, n)
	return g
}

// set returns name i's gram ids.
func (g *nameGrams) set(i int) []int32 { return g.ids[g.off[i]:g.off[i+1]] }

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

	g := m.grams
	if g == nil {
		for i := 0; i < d; i++ {
			for j := max(i+1, prevD); j < d; j++ {
				table[packed(i, j)] = float32(m.cfg.Similarity.Sim(m.names[i], m.names[j]))
			}
		}
		return table
	}

	// postings[start[x]:end[x]] lists, ascending, the names visited so far
	// that carry gram x.
	start := make([]int32, g.distinct+1)
	for _, x := range g.ids {
		start[x+1]++
	}
	for x := 0; x < g.distinct; x++ {
		start[x+1] += start[x]
	}
	end := append([]int32(nil), start[:g.distinct]...)
	postings := make([]int32, len(g.ids))
	inter := make([]int32, d)
	var touched []int32
	for i := 0; i < d; i++ {
		set := g.set(i)
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
				na := int(g.off[j+1] - g.off[j])
				table[packed(int(j), i)] = float32(g.score(int(inter[j]), na, len(set)))
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
