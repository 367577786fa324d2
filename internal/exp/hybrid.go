package exp

import (
	"fmt"

	"mube/internal/bamm"
	"mube/internal/constraint"
	"mube/internal/match"
	"mube/internal/pcsa"
	"mube/internal/schema"
	"mube/internal/synth"
)

// AblationHybrid measures what data-based similarity buys (§3: "Match(S)
// can use any attribute similarity measure, whether it is schema based or
// data based"). It generates a universe with aggressive attribute *renaming*
// (the site keeps its data, changes its labels) and per-attribute MinHash
// value sketches, then sweeps the data weight. Name-only matching (w=0)
// cannot recover a renamed attribute; blended matching can — and the origin
// ground truth makes the recovery measurable.
func AblationHybrid(sc Scale) ([]MatchRow, error) {
	cfg := synth.Scaled(min(sc.DataFactor, 0.01))
	cfg.NumSources = sc.BaseUniverse
	cfg.Seed = sc.Seed
	cfg.Sig = pcsa.Config{NumMaps: 128}
	cfg.PReplace = 0.35 // aggressive renaming: the regime data similarity targets
	cfg.AttrSignatures = true
	res, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	// Select from the *perturbed* region (sources ≥ 50 carry renames); the
	// conformant copies have nothing to recover. Score against the origin
	// ground truth: a renamed attribute keeps its concept.
	b := matchRows{u: res.Universe, conceptOf: func(r schema.AttrRef) (int, bool) {
		ci := res.AttrOrigins[r.Source][r.Attr]
		return ci, ci >= 0
	}}
	n := res.Universe.Len()
	for id := n - 30; id < n; id++ {
		b.sel = append(b.sel, schema.SourceID(id))
	}

	for _, w := range []float64{0, 0.25, 0.5, 0.75} {
		m, err := match.New(res.Universe, match.Config{Theta: match.DefaultTheta, DataWeight: w})
		if err != nil {
			return nil, err
		}
		mr, err := b.add(fmt.Sprintf("%.2f", w), func() (match.Result, error) { return m.Match(b.sel, constraint.Set{}) })
		if err != nil {
			return nil, err
		}
		if !mr.OK {
			return nil, fmt.Errorf("exp: hybrid match failed at w=%v", w)
		}
		// Count recovered renamed attributes: members of pure GAs whose
		// name is off-domain (origin says concept, name says noise).
		row := &b.rows[len(b.rows)-1]
		for _, g := range mr.Schema.GAs {
			if ci, pure := pureConcept(res, g); pure && ci >= 0 {
				for _, r := range g.Refs() {
					if _, byName := nameConcept(res, r); !byName {
						row.Renamed++
					}
				}
			}
		}
	}
	return b.rows, nil
}

// pureConcept reports whether every attribute of g has the same origin
// concept.
func pureConcept(res *synth.Result, g schema.GA) (int, bool) {
	concept := -2
	for _, r := range g.Refs() {
		ci := res.AttrOrigins[r.Source][r.Attr]
		if ci < 0 {
			return -1, false
		}
		if concept == -2 {
			concept = ci
		} else if ci != concept {
			return -1, false
		}
	}
	return concept, concept >= 0
}

// nameConcept resolves a reference's concept by its (possibly renamed) name.
func nameConcept(res *synth.Result, r schema.AttrRef) (int, bool) {
	return bamm.ConceptOf(res.Universe.AttrName(r))
}
