package strutil

import "strconv"

// Similarity measures the likeness of two attribute names and returns a value
// in [0,1], with 1 meaning identical. Implementations must be symmetric.
//
// µBE's Match operator is parameterized by a Similarity; the paper's
// prototype uses TriGramJaccard.
type Similarity interface {
	// Sim returns the similarity of a and b in [0,1].
	Sim(a, b string) float64
	// Name identifies the measure (for reports and ablation tables).
	Name() string
}

// Func adapts a plain function to the Similarity interface.
type Func struct {
	F     func(a, b string) float64
	Label string
}

// Sim invokes the wrapped function.
func (f Func) Sim(a, b string) float64 { return f.F(a, b) }

// Name returns the measure's label.
func (f Func) Name() string { return f.Label }

// NGramJaccard is the paper's similarity measure generalized to any gram
// size: the Jaccard coefficient of the two names' character n-gram sets.
type NGramJaccard struct {
	N int
}

// Sim returns the Jaccard coefficient of the n-gram sets of a and b.
func (m NGramJaccard) Sim(a, b string) float64 {
	return JaccardSets(NGrams(a, m.N), NGrams(b, m.N))
}

// Name returns e.g. "3gram-jaccard".
func (m NGramJaccard) Name() string {
	return strconv.Itoa(m.N) + "gram-jaccard"
}

// TriGramJaccard is the prototype's default measure (§3): Jaccard similarity
// of 3-gram sets of the normalized attribute names.
var TriGramJaccard Similarity = NGramJaccard{N: 3}

// NGramDice is the Sørensen–Dice coefficient over n-gram sets; it weights
// the intersection more heavily than Jaccard and is a common alternative.
type NGramDice struct {
	N int
}

// Sim returns the Dice coefficient of the n-gram sets of a and b.
func (m NGramDice) Sim(a, b string) float64 {
	return DiceSets(NGrams(a, m.N), NGrams(b, m.N))
}

// Name returns e.g. "3gram-dice".
func (m NGramDice) Name() string { return strconv.Itoa(m.N) + "gram-dice" }

// GramMeasure reports whether s scores two names from their n-gram sets
// alone, as NGramJaccard and NGramDice do, and if so returns the gram size n
// and the score as a function of counts: s.Sim(a, b) equals
// score(|A∩B|, |A|, |B|) bit for bit, where A and B are NGrams(a, n) and
// NGrams(b, n). A pair sharing no gram therefore scores exactly 0. Every
// other measure, custom Funcs included, reports false.
func GramMeasure(s Similarity) (n int, score func(inter, na, nb int) float64, ok bool) {
	switch m := s.(type) {
	case NGramJaccard:
		return m.N, JaccardCount, m.N > 0
	case NGramDice:
		return m.N, DiceCount, m.N > 0
	}
	return 0, nil, false
}

// LevenshteinSim is a normalized edit-distance similarity:
// 1 − dist(a,b)/max(|a|,|b|), computed on normalized names.
type LevenshteinSim struct{}

// Sim returns the normalized Levenshtein similarity of a and b.
func (LevenshteinSim) Sim(a, b string) float64 {
	na, nb := Normalize(a), Normalize(b)
	if len(na) == 0 && len(nb) == 0 {
		return 0
	}
	d := Levenshtein(na, nb)
	m := len(na)
	if len(nb) > m {
		m = len(nb)
	}
	return 1 - float64(d)/float64(m)
}

// Name returns "levenshtein".
func (LevenshteinSim) Name() string { return "levenshtein" }

// Levenshtein returns the edit distance between a and b with unit costs.
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			c := prev[j-1] + cost // substitute
			if d := prev[j] + 1; d < c {
				c = d // delete
			}
			if d := cur[j-1] + 1; d < c {
				c = d // insert
			}
			cur[j] = c
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// JaroWinklerSim is the Jaro–Winkler similarity, effective for short strings
// such as attribute names; it boosts matches with a common prefix.
type JaroWinklerSim struct{}

// Name returns "jaro-winkler".
func (JaroWinklerSim) Name() string { return "jaro-winkler" }

// Sim returns the Jaro–Winkler similarity of the normalized names.
func (JaroWinklerSim) Sim(a, b string) float64 {
	return JaroWinkler(Normalize(a), Normalize(b))
}

// Jaro returns the Jaro similarity of a and b.
func Jaro(a, b string) float64 {
	la, lb := len(a), len(b)
	if la == 0 && lb == 0 {
		return 0
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	amatch := make([]bool, la)
	bmatch := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if bmatch[j] || a[i] != b[j] {
				continue
			}
			amatch[i] = true
			bmatch[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among matched characters.
	trans := 0
	j := 0
	for i := 0; i < la; i++ {
		if !amatch[i] {
			continue
		}
		for !bmatch[j] {
			j++
		}
		if a[i] != b[j] {
			trans++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(trans)/2)/m) / 3
}

// JaroWinkler returns the Jaro–Winkler similarity with the standard prefix
// scale of 0.1 and a maximum prefix length of 4.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := 0
	for prefix < len(a) && prefix < len(b) && prefix < 4 && a[prefix] == b[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// TokenJaccardSim is the Jaccard coefficient over word tokens of the names;
// robust to token reordering ("first name" vs "name first").
type TokenJaccardSim struct{}

// Name returns "token-jaccard".
func (TokenJaccardSim) Name() string { return "token-jaccard" }

// Sim returns the token-set Jaccard similarity of a and b.
func (TokenJaccardSim) Sim(a, b string) float64 {
	ta, tb := Tokens(a), Tokens(b)
	sa := make(map[string]struct{}, len(ta))
	for _, t := range ta {
		sa[t] = struct{}{}
	}
	sb := make(map[string]struct{}, len(tb))
	for _, t := range tb {
		sb[t] = struct{}{}
	}
	return JaccardSets(sa, sb)
}

// Measures lists every built-in similarity measure, keyed by Name(). It is
// used by the CLI (-sim flag) and the similarity-measure ablation experiment.
func Measures() []Similarity {
	return []Similarity{
		TriGramJaccard,
		NGramJaccard{N: 2},
		NGramDice{N: 3},
		LevenshteinSim{},
		JaroWinklerSim{},
		TokenJaccardSim{},
	}
}

// ByName returns the built-in measure with the given Name, or nil.
func ByName(name string) Similarity {
	for _, m := range Measures() {
		if m.Name() == name {
			return m
		}
	}
	return nil
}
