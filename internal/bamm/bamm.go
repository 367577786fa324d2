// Package bamm provides the Books-domain schema corpus the experiments are
// built on. The paper uses the 50 Books-domain schemas of the BAMM
// repository (the UIUC Web integration repository); that repository is no
// longer distributed, so this package embeds a corpus authored in the same
// style: 50 Web-query-interface schemas over 14 distinct domain concepts,
// each concept expressed through several realistic attribute-name variants
// (see DESIGN.md, substitution 1).
//
// The corpus gives the experiments the two properties they rely on:
//
//  1. A known ground truth — ConceptOf maps every in-domain attribute name
//     to one of the 14 concepts, so "true GAs", covered attributes, and
//     missed concepts (Table 1) are countable.
//  2. Name variability — variants of one concept range from trivially
//     similar ("keyword"/"keywords") to unreachable without a user bridge
//     ("author"/"writer"), exercising the matching threshold and the
//     Matching-By-Example constraint mechanism.
package bamm

import (
	"mube/internal/schema"
	"mube/internal/strutil"
)

// Concept ids, in the order of the concepts table.
const (
	ConceptTitle = iota
	ConceptAuthor
	ConceptISBN
	ConceptPublisher
	ConceptKeyword
	ConceptSubject
	ConceptPrice
	ConceptFormat
	ConceptPubYear
	ConceptEdition
	ConceptLanguage
	ConceptCondition
	ConceptSeller
	ConceptAvailability
	// NumConcepts is the number of distinct domain concepts — the paper's
	// "up to 14 true GAs".
	NumConcepts = 14
)

// Concept is one domain concept and the attribute-name variants that express
// it across the corpus.
type Concept struct {
	Name     string
	Variants []string
}

// concepts is the ground-truth table.
var concepts = [NumConcepts]Concept{
	{Name: "title", Variants: []string{"title", "book title", "title of book", "title keyword", "book name"}},
	{Name: "author", Variants: []string{"author", "author name", "book author", "authors", "writer"}},
	{Name: "isbn", Variants: []string{"isbn", "isbn number", "isbn code", "isbn 13"}},
	{Name: "publisher", Variants: []string{"publisher", "publisher name", "publishers", "publishing house"}},
	{Name: "keyword", Variants: []string{"keyword", "keywords", "keyword search", "key word"}},
	{Name: "subject", Variants: []string{"subject", "subject area", "subjects", "subject category", "category"}},
	{Name: "price", Variants: []string{"price", "price range", "max price", "list price", "prices"}},
	{Name: "format", Variants: []string{"format", "book format", "formats", "binding"}},
	{Name: "pubyear", Variants: []string{"publication year", "publication date", "pub year", "year of publication", "pub date"}},
	{Name: "edition", Variants: []string{"edition", "edition number", "editions", "first edition"}},
	{Name: "language", Variants: []string{"language", "languages", "book language", "language code"}},
	{Name: "condition", Variants: []string{"condition", "book condition", "conditions", "item condition"}},
	{Name: "seller", Variants: []string{"seller", "seller name", "sellers", "store seller"}},
	{Name: "availability", Variants: []string{"availability", "available", "availability status", "in stock", "stock status"}},
}

// conceptIndex maps normalized variant names to concept ids.
var conceptIndex = func() map[string]int {
	idx := make(map[string]int)
	for ci, c := range concepts {
		for _, v := range c.Variants {
			idx[strutil.Normalize(v)] = ci
		}
	}
	return idx
}()

// Concepts returns the 14-concept ground-truth table.
func Concepts() []Concept {
	out := make([]Concept, NumConcepts)
	copy(out, concepts[:])
	return out
}

// ConceptName returns the name of concept ci.
func ConceptName(ci int) string { return concepts[ci].Name }

// ConceptOf returns the concept expressed by the attribute name (after
// normalization) and true, or 0 and false for names outside the domain
// (e.g. perturbation noise words).
func ConceptOf(name string) (int, bool) {
	ci, ok := conceptIndex[strutil.Normalize(name)]
	return ci, ok
}

// baseSchemas is the 50-schema corpus. Each schema mimics a real bookstore
// or library search form: a handful of attributes, each naming one concept
// through one of its variants. Schema 0..49 are the "original" (conformant)
// schemas that perturbed copies are derived from (§7.1).
var baseSchemas = [][]string{
	{"title", "author", "isbn"},                                   // 0  classic bookstore
	{"keyword", "title", "author", "subject"},                     // 1  library catalog
	{"book title", "author name", "publisher", "price"},           // 2
	{"isbn", "title"},                                             // 3  lookup form
	{"keywords", "category", "price range"},                       // 4  storefront browse
	{"title", "author", "publisher", "publication year", "isbn"},  // 5  full catalog
	{"author", "title", "format", "language"},                     // 6
	{"search title", "writer"},                                    // 7  (odd title variant is off-domain)
	{"title of book", "book author", "isbn number", "edition"},    // 8
	{"keyword", "subject area", "publication date"},               // 9
	{"title", "max price", "condition"},                           // 10 used-books site
	{"author", "title", "binding", "list price"},                  // 11
	{"isbn 13", "title", "publisher name"},                        // 12
	{"book title", "authors", "subjects"},                         // 13
	{"keyword search", "format", "language"},                      // 14
	{"title", "author", "price", "availability"},                  // 15
	{"publication year", "publisher", "title"},                    // 16
	{"title keyword", "author name", "category"},                  // 17
	{"isbn", "condition", "seller"},                               // 18 marketplace
	{"title", "edition", "publisher"},                             // 19
	{"author", "keyword", "in stock"},                             // 20
	{"book title", "price range", "book format"},                  // 21
	{"title", "author", "isbn", "publisher", "subject", "price"},  // 22 power search
	{"keywords", "pub year"},                                      // 23
	{"title", "writer", "publishing house"},                       // 24
	{"author", "subject category", "language code"},               // 25
	{"isbn code", "title", "seller name"},                         // 26
	{"title", "book condition", "prices"},                         // 27
	{"keyword", "author", "title", "format", "edition number"},    // 28
	{"book name", "author", "stock status"},                       // 29
	{"title", "category", "publication date", "publisher"},        // 30
	{"author name", "title of book", "isbn"},                      // 31
	{"key word", "subject", "max price"},                          // 32
	{"title", "author", "year of publication"},                    // 33
	{"isbn", "book format", "availability"},                       // 34
	{"title", "publisher", "language", "price"},                   // 35
	{"author", "title", "sellers"},                                // 36
	{"keyword", "title", "available"},                             // 37
	{"book title", "edition", "item condition"},                   // 38
	{"title", "authors", "subject", "pub date"},                   // 39
	{"isbn number", "publisher", "price"},                         // 40
	{"title", "author", "keyword", "category", "format"},          // 41
	{"book author", "title", "first edition"},                     // 42
	{"title", "languages", "publishers"},                          // 43
	{"keyword", "price", "condition", "seller"},                   // 44
	{"title", "author", "isbn", "availability status"},            // 45
	{"subject", "title", "publication year", "book language"},     // 46
	{"author", "book title", "store seller"},                      // 47
	{"title", "keyword", "editions", "conditions"},                // 48
	{"isbn", "author", "title", "publisher", "price", "in stock"}, // 49
}

// baseConcepts[i][a] is the concept attribute a of base schema i expresses,
// or -1 for an off-domain name; like conceptIndex it is built once, since
// the corpus never changes.
var baseConcepts = func() [][]int {
	out := make([][]int, len(baseSchemas))
	for i, attrs := range baseSchemas {
		out[i] = make([]int, len(attrs))
		for a, name := range attrs {
			out[i][a] = -1
			if ci, ok := ConceptOf(name); ok {
				out[i][a] = ci
			}
		}
	}
	return out
}()

// Base returns base schema i's attribute names and the concept each one
// expresses (-1 for an off-domain name). Both slices are shared by every
// caller and must not be modified; Schemas returns copies.
func Base(i int) (attrs []string, concepts []int) {
	return baseSchemas[i], baseConcepts[i]
}

// Schemas returns the 50 base Books schemas.
func Schemas() []schema.Schema {
	out := make([]schema.Schema, len(baseSchemas))
	for i, attrs := range baseSchemas {
		out[i] = schema.NewSchema(attrs...)
	}
	return out
}

// NumSchemas is the corpus size.
func NumSchemas() int { return len(baseSchemas) }
