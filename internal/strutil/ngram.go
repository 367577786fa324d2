// Package strutil provides the low-level string machinery used by µBE's
// schema matching layer: attribute-name normalization, tokenization, n-gram
// extraction, and a family of pluggable string similarity measures.
//
// The paper's prototype measures attribute similarity as the Jaccard
// coefficient between the 3-gram sets of the attribute names (§3); every
// other measure here exists so that Match(S) can be instantiated with an
// alternative measure, as the paper explicitly allows ("Match(S) can use any
// attribute similarity measure").
package strutil

import (
	"slices"
	"strings"
)

// Normalize canonicalizes an attribute name for matching: it lowercases the
// name, maps punctuation and underscores to spaces, and collapses runs of
// whitespace. Matching is performed on normalized names so that "Author_Name"
// and "author name" are identical.
func Normalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	lastSpace := true // trim leading space
	for _, r := range s {
		switch {
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r - 'A' + 'a')
			lastSpace = false
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			lastSpace = false
		default:
			if !lastSpace {
				b.WriteByte(' ')
				lastSpace = true
			}
		}
	}
	return strings.TrimRight(b.String(), " ")
}

// Tokens splits a normalized name into its word tokens.
func Tokens(s string) []string {
	return strings.Fields(Normalize(s))
}

// NGrams returns the set of character n-grams of s, after normalization.
// Following common practice (and so that names shorter than n still produce
// grams), the string is padded with n-1 leading and trailing '#' sentinels.
// The result is a set: duplicate grams appear once.
func NGrams(s string, n int) map[string]struct{} {
	if n <= 0 {
		return nil
	}
	norm := Normalize(s)
	padded := string(appendPadded(make([]byte, 0, len(norm)+2*(n-1)), norm, n))
	set := make(map[string]struct{}, len(padded))
	for i := 0; i+n <= len(padded); i++ {
		set[padded[i:i+n]] = struct{}{}
	}
	return set
}

// appendPadded appends norm between n−1 leading and n−1 trailing '#'
// sentinels to dst. The n-byte windows of the result are norm's n-grams.
func appendPadded(dst []byte, norm string, n int) []byte {
	for i := 1; i < n; i++ {
		dst = append(dst, '#')
	}
	dst = append(dst, norm...)
	for i := 1; i < n; i++ {
		dst = append(dst, '#')
	}
	return dst
}

// GramSets returns the n-gram sets of many names as sorted gram ids, so that
// the sets can be compared by integer counting instead of string maps. The
// names must already be in Normalize form. Name i's set is
// ids[off[i]:off[i+1]]: the ids of exactly the grams NGrams(names[i], n)
// returns, each once. Ids are dense in [0, grams), numbered in order of first
// appearance, so the result is a pure function of the names.
func GramSets(names []string, n int) (off, ids []int32, grams int) {
	off = make([]int32, 1, len(names)+1)
	if n <= 0 {
		return append(off, make([]int32, len(names))...), nil, 0
	}
	gramID := make(map[string]int32)
	var buf []byte
	for _, name := range names {
		buf = appendPadded(buf[:0], name, n)
		start := len(ids)
		for i := 0; i+n <= len(buf); i++ {
			id, ok := gramID[string(buf[i:i+n])]
			if !ok {
				id = int32(len(gramID))
				gramID[string(buf[i:i+n])] = id
			}
			ids = append(ids, id)
		}
		set := ids[start:]
		slices.Sort(set)
		ids = ids[:start+len(slices.Compact(set))]
		off = append(off, int32(len(ids)))
	}
	return off, ids, len(gramID)
}

// setOverlap returns |a ∩ b| for two gram sets.
func setOverlap(a, b map[string]struct{}) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	n := 0
	for g := range a {
		if _, ok := b[g]; ok {
			n++
		}
	}
	return n
}

// JaccardSets returns |a∩b| / |a∪b| for two sets, and 0 when both are empty.
func JaccardSets(a, b map[string]struct{}) float64 {
	return JaccardCount(setOverlap(a, b), len(a), len(b))
}

// JaccardCount is JaccardSets computed from counts alone: the intersection
// size inter of two sets of sizes na and nb. JaccardSets and the matcher's
// name-table fill both compute through it, so equal counts give bit-equal
// scores.
func JaccardCount(inter, na, nb int) float64 {
	if na == 0 && nb == 0 {
		return 0
	}
	return float64(inter) / float64(na+nb-inter)
}

// DiceSets returns the Sørensen–Dice coefficient 2|a∩b| / (|a|+|b|).
func DiceSets(a, b map[string]struct{}) float64 {
	return DiceCount(setOverlap(a, b), len(a), len(b))
}

// DiceCount is DiceSets computed from counts alone, as JaccardCount is for
// JaccardSets.
func DiceCount(inter, na, nb int) float64 {
	if na == 0 && nb == 0 {
		return 0
	}
	return 2 * float64(inter) / float64(na+nb)
}
