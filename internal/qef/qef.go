// Package qef implements µBE's quality evaluation framework (§2.3–§5): a
// quality evaluation function (QEF) maps a candidate set of sources S to a
// number in [0,1] (higher is better), and the overall quality Q(S) is the
// weighted sum of all QEFs, with user-supplied weights that sum to 1.
//
// The four main QEFs are:
//
//	F1 matching quality — how well the sources' schemas match (package match)
//	F2 cardinality      — how much data S holds
//	F3 coverage         — how much of the universe's distinct data S reaches
//	F4 redundancy       — how little S's sources overlap (1 = no overlap)
//
// Users can add further QEFs over arbitrary source characteristics (latency,
// fees, MTTF, reputation, …) by pairing a characteristic name with an
// aggregation function (§5).
package qef

import (
	"fmt"
	"math"
	"sort"

	"mube/internal/schema"
	"mube/internal/source"
)

// Context carries the inputs the QEFs score one candidate source set S
// from. The caller derives two of them: F1(S), from Match(S) (package
// match), and the union statistics over S, from the PCSA signatures of S.
// The evaluator (package opt) derives both. A Context is plain data that
// QEFs only read.
type Context struct {
	// U is the universe the candidate set is drawn from.
	U *source.Universe
	// IDs is the candidate source set S (sorted, no duplicates).
	IDs []schema.SourceID
	// F1 is the matching quality of S as the caller computed it: the
	// Quality of Match(S) under the user constraints, or 0 when Match(S)
	// is not valid on them (or was not run). MatchQuality returns it.
	F1 float64
	// Union holds the union statistics over S that Coverage and Redundancy
	// read; the zero value describes a set with no signature and no
	// cooperative source.
	Union UnionStats
}

// UnionStats are the union statistics over a candidate set S that the
// Coverage and Redundancy QEFs consume.
type UnionStats struct {
	// UnionEst is the estimate of |∪ s| over the sources of S that export a
	// signature; 0 when none does.
	UnionEst float64
	// CoopN is the number of cooperative sources in S.
	CoopN int
	// CoopSum is Σ|s| over the cooperative sources of S.
	CoopSum int64
	// CoopMixed reports whether S contains a source that exports a
	// signature but no cardinality. Such a source counts towards Coverage's
	// union but not towards Redundancy's, so Redundancy then reads
	// CoopUnionEst instead of UnionEst.
	CoopMixed bool
	// CoopUnionEst is the estimate of |∪ s| over only the cooperative
	// sources of S. Redundancy reads it only when CoopMixed is set and
	// CoopN ≥ 2; otherwise it may be left 0.
	CoopUnionEst float64
}

// NewContext builds an evaluation context for the source set ids, with F1
// and Union left zero for the caller to set.
func NewContext(u *source.Universe, ids []schema.SourceID) *Context {
	return &Context{U: u, IDs: ids}
}

// QEF is one quality dimension. Eval must return a value in [0,1]; higher is
// better.
type QEF interface {
	// Name identifies the QEF; weights are keyed by it.
	Name() string
	// Eval returns the aggregate quality of the context's source set on this
	// dimension.
	Eval(ctx *Context) float64
}

// Canonical QEF names used by the paper's four main quality dimensions.
const (
	NameMatchQuality = "match"
	NameCardinality  = "card"
	NameCoverage     = "coverage"
	NameRedundancy   = "redundancy"
)

// MatchQuality is F1: the quality of the best matching among the schemas of
// the sources in S, as computed by the constrained clustering algorithm. A
// failed match (no schema valid on the source constraints at threshold θ)
// scores 0. The context carries the value (Context.F1).
type MatchQuality struct{}

// Name returns "match".
func (MatchQuality) Name() string { return NameMatchQuality }

// Eval returns the matching quality of S.
func (MatchQuality) Eval(ctx *Context) float64 { return ctx.F1 }

// Cardinality is F2 = Card(S) = Σ_{s∈S}|s| / Σ_{t∈U}|t|: the fraction of the
// universe's tuples held by S. Uncooperative sources contribute 0.
type Cardinality struct{}

// Name returns "card".
func (Cardinality) Name() string { return NameCardinality }

// Eval returns Card(S).
func (Cardinality) Eval(ctx *Context) float64 {
	total := ctx.U.TotalCardinality()
	if total == 0 {
		return 0
	}
	return float64(ctx.U.SumCardinality(ctx.IDs)) / float64(total)
}

// Coverage is F3 = Coverage(S) = |∪_{s∈S} s| / |∪_{t∈U} t|: the fraction of
// the universe's distinct tuples reachable from S, estimated from PCSA
// signatures. Uncooperative sources contribute 0 (§4).
type Coverage struct{}

// Name returns "coverage".
func (Coverage) Name() string { return NameCoverage }

// Eval returns Coverage(S).
func (Coverage) Eval(ctx *Context) float64 {
	denom := ctx.U.UnionAllEstimate()
	if denom == 0 {
		return 0
	}
	return clamp01(ctx.Union.UnionEst / denom)
}

// Redundancy is F4: a measure of the overlap among the sources of S,
// oriented so that 1 is best (no overlap) and 0 is worst (all sources hold
// the same data):
//
//	Redundancy(S) = (|S| − Σ_{s∈S}|s| / |∪_{s∈S} s|) / (|S| − 1)
//
// computed over the cooperative sources of S; it is 1 when S has at most one
// cooperative source but at least one source cooperates, and 0 when no
// source in S cooperates (uncooperative sources are assigned 0 redundancy,
// §4). See DESIGN.md for the reconstruction of this formula.
type Redundancy struct{}

// Name returns "redundancy".
func (Redundancy) Name() string { return NameRedundancy }

// Eval returns Redundancy(S).
func (Redundancy) Eval(ctx *Context) float64 {
	st := ctx.Union
	if st.CoopN == 0 {
		return 0
	}
	if st.CoopN == 1 {
		return 1
	}
	union := st.UnionEst
	if st.CoopMixed {
		// A source exported a signature without a cardinality: restrict the
		// union to the cooperative sources, as the formula requires.
		union = st.CoopUnionEst
	}
	if union <= 0 || st.CoopSum == 0 {
		return 0
	}
	ratio := float64(st.CoopSum) / union // ∈ [1, |S|] up to estimation noise
	v := (float64(st.CoopN) - ratio) / float64(st.CoopN-1)
	return clamp01(v)
}

// clamp01 clips v into [0,1]; estimation noise can push ratios slightly out
// of range.
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// MainQEFs returns the paper's four main quality dimensions F1..F4.
func MainQEFs() []QEF {
	return []QEF{MatchQuality{}, Cardinality{}, Coverage{}, Redundancy{}}
}

// Weights maps QEF names to their user-assigned importance. A valid weight
// set has every weight in [0,1] and a total of 1 (§2.3).
type Weights map[string]float64

// Validate checks the weight set against the QEF list: every QEF must have a
// weight in [0,1], no weight may lack a QEF, and the weights must sum to 1
// (within tolerance).
func (w Weights) Validate(qefs []QEF) error {
	names := make(map[string]struct{}, len(qefs))
	sum := 0.0
	for _, q := range qefs {
		v, ok := w[q.Name()]
		if !ok {
			return fmt.Errorf("qef: no weight for QEF %q", q.Name())
		}
		if v < 0 || v > 1 || math.IsNaN(v) {
			return fmt.Errorf("qef: weight for %q is %v, want [0,1]", q.Name(), v)
		}
		names[q.Name()] = struct{}{}
		sum += v
	}
	for name := range w {
		if _, ok := names[name]; !ok {
			return fmt.Errorf("qef: weight for unknown QEF %q", name)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("qef: weights sum to %v, want 1", sum)
	}
	return nil
}

// Normalized returns a copy of w scaled so the weights sum to 1. If all
// weights are zero it distributes weight uniformly.
func (w Weights) Normalized() Weights {
	out := make(Weights, len(w))
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	if sum == 0 {
		for k := range w {
			out[k] = 1 / float64(len(w))
		}
		return out
	}
	for k, v := range w {
		out[k] = v / sum
	}
	return out
}

// Clone returns a copy of w.
func (w Weights) Clone() Weights {
	out := make(Weights, len(w))
	for k, v := range w {
		out[k] = v
	}
	return out
}

// Names returns the weight keys in sorted order.
func (w Weights) Names() []string {
	names := make([]string, 0, len(w))
	for k := range w {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Uniform returns weights assigning 1/len(qefs) to each QEF.
func Uniform(qefs []QEF) Weights {
	w := make(Weights, len(qefs))
	for _, q := range qefs {
		w[q.Name()] = 1 / float64(len(qefs))
	}
	return w
}

// PaperDefaults returns the §7.1 default weights for the five default QEFs:
// matching 0.25, cardinality 0.25, coverage 0.2, redundancy 0.15, MTTF 0.15.
func PaperDefaults() Weights {
	return Weights{
		NameMatchQuality: 0.25,
		NameCardinality:  0.25,
		NameCoverage:     0.20,
		NameRedundancy:   0.15,
		"mttf":           0.15,
	}
}

// Quality combines a set of QEFs with weights into the overall objective
// Q(S) = Σ w_i · F_i(S). Build it with NewQuality and change neither field
// afterwards: Eval reads the weights from a copy aligned with QEFs.
type Quality struct {
	QEFs    []QEF
	Weights Weights
	// weights[i] is Weights[QEFs[i].Name()], so Eval looks up no name.
	weights []float64
}

// NewQuality validates and builds the composite objective.
func NewQuality(qefs []QEF, w Weights) (*Quality, error) {
	if len(qefs) == 0 {
		return nil, fmt.Errorf("qef: no QEFs")
	}
	seen := make(map[string]struct{}, len(qefs))
	for _, q := range qefs {
		if _, dup := seen[q.Name()]; dup {
			return nil, fmt.Errorf("qef: duplicate QEF name %q", q.Name())
		}
		seen[q.Name()] = struct{}{}
	}
	if err := w.Validate(qefs); err != nil {
		return nil, err
	}
	weights := make([]float64, len(qefs))
	for i, q := range qefs {
		weights[i] = w[q.Name()]
	}
	return &Quality{QEFs: qefs, Weights: w.Clone(), weights: weights}, nil
}

// Eval returns Q(S) for the context's source set.
func (q *Quality) Eval(ctx *Context) float64 {
	total := 0.0
	for i, f := range q.QEFs {
		if w := q.weights[i]; w > 0 {
			total += w * f.Eval(ctx)
		}
	}
	return total
}

// Breakdown returns each QEF's raw value for the context's source set,
// keyed by QEF name (unweighted).
func (q *Quality) Breakdown(ctx *Context) map[string]float64 {
	out := make(map[string]float64, len(q.QEFs))
	for _, f := range q.QEFs {
		out[f.Name()] = f.Eval(ctx)
	}
	return out
}
