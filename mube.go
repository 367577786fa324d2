// Package mube is a Go implementation of µBE ("Matching By Example"), the
// user-guided source selection and schema mediation system of Aboulnaga and
// El Gebaly (ICDE 2007).
//
// µBE targets Internet-scale data integration: instead of fixing a mediated
// schema up front and mapping hundreds of discovered sources onto it, the
// user *explores*. µBE selects a subset of sources and derives a mediated
// schema over them by solving a constrained non-linear optimization problem
// with tabu search; the user inspects the result, pins global attributes
// (GAs) they like as constraints, requires or bans sources, re-weights the
// quality dimensions, and solves again.
//
// # Quality model
//
// A candidate source set S is scored by Q(S) = Σ wᵢ·Fᵢ(S), a weighted sum of
// quality evaluation functions in [0,1]:
//
//   - match:      how coherently the sources' schemas match (3-gram Jaccard
//     clustering by default)
//   - card:       how much data S holds
//   - coverage:   how much of the universe's distinct data S reaches,
//     estimated from mergeable Flajolet–Martin (PCSA) signatures
//   - redundancy: how little S's sources overlap (1 = disjoint)
//   - any user-defined QEF over source characteristics (latency, fees,
//     MTTF, reputation, …) via an aggregation function such as wsum
//
// # Quick start
//
//	res, _ := mube.GenerateUniverse(mube.ScaledSynthConfig(0.01)) // or build your own Universe
//	s, _ := mube.NewSession(mube.SessionConfig{Universe: res.Universe, MaxSources: 20})
//	sol, _ := s.Solve()
//	fmt.Println(sol.Quality, sol.Schema.Render(res.Universe))
//	s.PinSolutionGA(0, 0) // adopt a GA from the output as a constraint
//	sol, _ = s.Solve()    // iterate
//
// See examples/ for complete programs and DESIGN.md for the system map.
package mube

import (
	"mube/internal/compound"
	"mube/internal/constraint"
	"mube/internal/discovery"
	"mube/internal/fault"
	"mube/internal/match"
	"mube/internal/mediator"
	"mube/internal/minhash"
	"mube/internal/opt"
	"mube/internal/opt/solvers"
	"mube/internal/pcsa"
	"mube/internal/probe"
	"mube/internal/qef"
	"mube/internal/schema"
	"mube/internal/session"
	"mube/internal/source"
	"mube/internal/store"
	"mube/internal/strutil"
	"mube/internal/synth"
)

// Core vocabulary (see the respective internal packages for full docs).
type (
	// Universe is the set of candidate data sources.
	Universe = source.Universe
	// Source is one candidate data source: schema, data synopses, and
	// characteristics.
	Source = source.Source
	// SourceCharacteristic is one named characteristic value of a source
	// (Source.Characteristics, ProbeCandidate.Characteristics).
	SourceCharacteristic = source.Characteristic
	// TupleIterator streams a source's tuples for synopsis construction.
	TupleIterator = source.TupleIterator
	// SourceID identifies a source within a universe.
	SourceID = schema.SourceID
	// AttrRef identifies one attribute of one source.
	AttrRef = schema.AttrRef
	// Schema is a source's attribute list.
	Schema = schema.Schema
	// GA is a Global Attribute: a set of matching attributes from distinct
	// sources.
	GA = schema.GA
	// MediatedSchema is a set of disjoint GAs.
	MediatedSchema = schema.Mediated
	// Constraints hold the user's source and GA constraints.
	Constraints = constraint.Set
	// QEF is one quality dimension.
	QEF = qef.QEF
	// Weights map QEF names to importances summing to 1.
	Weights = qef.Weights
	// CharacteristicQEF scores a named source characteristic through an
	// aggregator.
	CharacteristicQEF = qef.Characteristic
	// Aggregator folds per-source characteristic values into [0,1].
	Aggregator = qef.Aggregator
	// Similarity measures attribute-name likeness in [0,1].
	Similarity = strutil.Similarity
	// MatchConfig parameterizes the Match(S) operator (measure, θ, β,
	// linkage).
	MatchConfig = match.Config
	// MatchResult is Match(S)'s output: schema, quality, validity.
	MatchResult = match.Result
	// Matcher is the Match(S) operator bound to a universe.
	Matcher = match.Matcher
	// Problem is one fully specified optimization problem.
	Problem = opt.Problem
	// Solution is a solver's output.
	Solution = opt.Solution
	// SolveStatus records how a solve ended (completed, deadline, canceled,
	// budget-exhausted).
	SolveStatus = opt.Status
	// Solver maximizes a problem's objective.
	Solver = opt.Solver
	// SolverOptions bound a solver run (seed, budgets).
	SolverOptions = opt.Options
	// Session is the iterative explore–constrain–resolve loop.
	Session = session.Session
	// SessionConfig assembles a session.
	SessionConfig = session.Config
	// SessionSpec is the editable problem specification of an iteration.
	SessionSpec = session.Spec
	// Iteration records one solved spec.
	Iteration = session.Iteration
	// SignatureConfig shapes PCSA hash signatures.
	SignatureConfig = pcsa.Config
	// Signature is a mergeable distinct-count synopsis.
	Signature = pcsa.Signature
	// SynthConfig parameterizes synthetic-universe generation (§7.1).
	SynthConfig = synth.Config
	// SynthResult is a generated universe plus ground truth.
	SynthResult = synth.Result
	// Mediator executes queries over a chosen integration system.
	Mediator = mediator.System
	// Query selects GA columns under conjunctive predicates.
	Query = mediator.Query
	// QueryPredicate filters one GA.
	QueryPredicate = mediator.Predicate
	// QueryOp is a predicate operator.
	QueryOp = mediator.Op
	// QueryResult holds merged rows with provenance plus execution stats.
	QueryResult = mediator.Result
	// RowTable stores one source's rows for the mediator.
	RowTable = store.Table
	// Row is one tuple of values aligned with a source schema.
	Row = store.Row
	// CompoundElement groups attributes of one source for n:m matching
	// (§2.1's compound-element extension).
	CompoundElement = compound.Element
	// CompoundGrouping assigns compound elements to sources.
	CompoundGrouping = compound.Grouping
	// CompoundView is the element-level view of a universe.
	CompoundView = compound.Transformed
	// Correspondence is an n:m match over original attributes.
	Correspondence = compound.Correspondence
	// DiscoveryIndex answers ranked keyword queries over source
	// descriptions — the local stand-in for a hidden-Web search engine.
	DiscoveryIndex = discovery.Index
	// DiscoveryHit is one ranked search result.
	DiscoveryHit = discovery.Hit
	// ValueSketch is a MinHash synopsis of one attribute's value set,
	// enabling data-based attribute similarity (MatchConfig.DataWeight).
	ValueSketch = minhash.Signature
	// FaultPlan is a reproducible, seed-driven fault schedule for simulated
	// source acquisition (error rates, latency, flap/outage windows).
	FaultPlan = fault.Plan
	// Prober acquires sources from possibly-failing tuple streams with
	// retry/backoff and a circuit breaker, degrading instead of failing.
	Prober = probe.Prober
	// ProbePolicy bounds the prober's persistence (attempts, backoff,
	// deadline, breaker limit).
	ProbePolicy = probe.Policy
	// ProbeCandidate is one source awaiting acquisition.
	ProbeCandidate = probe.Candidate
	// HealthReport records per-source acquisition outcomes for a universe.
	HealthReport = probe.HealthReport
)

// Predicate operators for Query.Where.
const (
	OpEq       = mediator.OpEq
	OpContains = mediator.OpContains
	OpPrefix   = mediator.OpPrefix
)

// NewMediator assembles a queryable integration system from a universe, the
// mediated schema of a solution, the selected sources, and one row table per
// source.
func NewMediator(u *Universe, med MediatedSchema, sources []SourceID, tables map[SourceID]*RowTable) (*Mediator, error) {
	return mediator.New(u, med, sources, tables)
}

// NewRowTable returns an empty row table over a source schema.
func NewRowTable(sch Schema) *RowTable { return store.NewTable(sch) }

// MaterializeRows converts a synthetic result generated with
// SynthConfig.KeepTuples into row tables for the given sources.
func MaterializeRows(res *SynthResult, ids []SourceID) (map[SourceID]*RowTable, error) {
	return synth.Materialize(res, ids)
}

// CompoundTransform derives the element-level view of a universe under a
// grouping, enabling n:m matching as 1:1 matching over compound elements.
func CompoundTransform(u *Universe, g CompoundGrouping) (*CompoundView, error) {
	return compound.Transform(u, g)
}

// AutoGroupCompounds proposes compound elements heuristically (attributes
// sharing a head token, e.g. "after date"/"before date" → "date").
func AutoGroupCompounds(u *Universe) CompoundGrouping { return compound.AutoGroup(u) }

// BuildDiscoveryIndex indexes a universe for keyword source discovery.
func BuildDiscoveryIndex(u *Universe) *DiscoveryIndex { return discovery.Build(u) }

// NewValueSketch returns an empty MinHash value sketch with k slots (use
// DefaultValueSketchK) under the given seed; attach sketches to
// Source.AttrSignatures to enable data-based matching.
func NewValueSketch(k int, seed uint64) (*ValueSketch, error) { return minhash.New(k, seed) }

// DefaultValueSketchK is the default value-sketch width (1 KiB, ≈9% Jaccard
// standard error).
const DefaultValueSketchK = minhash.DefaultK

// DefaultSignatureConfig is the PCSA shape µBE uses by default (256 bitmaps,
// ≈5% standard error, 2 KiB per source).
var DefaultSignatureConfig = pcsa.DefaultConfig

// NewUniverse returns an empty universe whose cooperative sources use the
// given signature configuration.
func NewUniverse(cfg SignatureConfig) *Universe { return source.NewUniverse(cfg) }

// SourceFromTuples builds a cooperative source by scanning its tuples once,
// computing the cardinality and PCSA signature.
func SourceFromTuples(name string, sch Schema, it TupleIterator, cfg SignatureConfig) (*Source, error) {
	return source.FromTuples(name, sch, it, cfg)
}

// TupleSlice adapts an in-memory tuple list to a TupleIterator.
func TupleSlice(tuples []uint64) TupleIterator { return source.NewSliceIterator(tuples) }

// UncooperativeSource builds a source that exports only its schema and
// characteristics; it scores 0 on the data-dependent QEFs but can still be
// selected.
func UncooperativeSource(name string, sch Schema) *Source {
	return source.Uncooperative(name, sch)
}

// NewSchema builds a schema over the given attribute names.
func NewSchema(attrs ...string) Schema { return schema.NewSchema(attrs...) }

// NewGA builds a GA over the given attribute references.
func NewGA(refs ...AttrRef) GA { return schema.NewGA(refs...) }

// NewMediated builds a mediated schema over the given GAs.
func NewMediated(gas ...GA) MediatedSchema { return schema.NewMediated(gas...) }

// NewSession opens an iterative µBE session.
func NewSession(cfg SessionConfig) (*Session, error) { return session.New(cfg) }

// NewMatcher builds a standalone Match(S) operator for u.
func NewMatcher(u *Universe, cfg MatchConfig) (*Matcher, error) { return match.New(u, cfg) }

// MainQEFs returns the paper's four main quality dimensions.
func MainQEFs() []QEF { return qef.MainQEFs() }

// UniformWeights assigns equal weight to each QEF.
func UniformWeights(qefs []QEF) Weights { return qef.Uniform(qefs) }

// PaperWeights returns the §7.1 default weights (match 0.25, card 0.25,
// coverage 0.2, redundancy 0.15, mttf 0.15).
func PaperWeights() Weights { return qef.PaperDefaults() }

// WSum is the paper's cardinality-weighted aggregation function for source
// characteristics.
func WSum() Aggregator { return qef.WSum{} }

// AggregatorByName resolves "wsum", "mean", "min", or "max".
func AggregatorByName(name string) (Aggregator, error) { return qef.AggregatorByName(name) }

// TriGramJaccard is the prototype's default attribute similarity measure.
var TriGramJaccard = strutil.TriGramJaccard

// SimilarityByName resolves a built-in similarity measure (e.g.
// "3gram-jaccard", "jaro-winkler", "levenshtein").
func SimilarityByName(name string) Similarity { return strutil.ByName(name) }

// Solve statuses (see SolveStatus).
const (
	SolveCompleted = opt.StatusCompleted
	SolveDeadline  = opt.StatusDeadline
	SolveCanceled  = opt.StatusCanceled
	SolveExhausted = opt.StatusExhausted
)

// ParseFaultPlan parses a canonical fault-plan string such as
// "rate=0.3,seed=7,latency=20ms,flap=2s:0.25" ("" and "none" disable).
func ParseFaultPlan(s string) (FaultPlan, error) { return fault.ParsePlan(s) }

// NewProber returns a fault-tolerant source prober. clock may be nil (virtual
// clock from the zero time), inj may be nil (fault-free acquisition); seed
// drives backoff jitter.
func NewProber(policy ProbePolicy, plan FaultPlan, seed int64) *Prober {
	return probe.New(policy, nil, fault.NewInjector(plan), seed)
}

// DefaultSolver returns tabu search, µBE's default solver.
func DefaultSolver() Solver { return solvers.Default() }

// SolverByName resolves "tabu", "sls", "anneal", "pso", "random", or
// "exhaustive".
func SolverByName(name string) (Solver, error) { return solvers.ByName(name) }

// AllSolvers lists the heuristic solvers in comparison order.
func AllSolvers() []Solver { return solvers.All() }

// GenerateUniverse builds a synthetic universe per the paper's §7.1 recipe.
func GenerateUniverse(cfg SynthConfig) (*SynthResult, error) { return synth.Generate(cfg) }

// DefaultSynthConfig is the paper's full-scale generation recipe: 700
// sources, 50 BAMM-style Books schemas plus perturbed copies, Zipf
// cardinalities in [10k, 1M], a 4M-tuple pool, MTTF ~ Normal(100, 40).
func DefaultSynthConfig() SynthConfig { return synth.Defaults() }

// ScaledSynthConfig shrinks the default data volume by factor (e.g. 0.01)
// for fast experimentation; schema generation is unchanged.
func ScaledSynthConfig(factor float64) SynthConfig { return synth.Scaled(factor) }
