package qef

import "fmt"

// Aggregator folds the per-source values of one characteristic over a source
// set into a quality in [0,1] (§5). Values are normalized against the
// universe-wide (min, max) range of the characteristic so that users may
// supply characteristics of any magnitude; the built-in aggregators read them
// from the universe's memoized column (source.Universe.NormalizedCharacteristic),
// one lookup per evaluation.
type Aggregator interface {
	// Name identifies the aggregator.
	Name() string
	// Aggregate computes the quality. ctx provides the universe (for
	// normalization ranges and cardinalities); char is the characteristic
	// name.
	Aggregate(ctx *Context, char string) float64
}

// Characteristic is a user-defined QEF over one named source characteristic,
// evaluated through an aggregation function. Sources that do not define the
// characteristic contribute as if they had the universe-wide minimum.
type Characteristic struct {
	// Char is the characteristic name, e.g. "mttf", "latency", "fees".
	Char string
	// Agg is the aggregation function; WSum is the paper's example.
	Agg Aggregator
	// Invert flips the normalized value (1 − v) for characteristics where
	// smaller is better, such as latency or fees.
	Invert bool
}

// Name returns the characteristic name (QEF weights are keyed by it).
func (c Characteristic) Name() string { return c.Char }

// Eval aggregates the characteristic over the context's source set.
func (c Characteristic) Eval(ctx *Context) float64 {
	v := c.Agg.Aggregate(ctx, c.Char)
	if c.Invert {
		v = 1 - v
	}
	return clamp01(v)
}

// WSum is the paper's weighted-sum aggregation function (§5):
//
//	wsum(S) = Σ_{s∈S} (s.q − min_U q)·|s|  /  (Σ_{s∈S}|s| · (max_U q − min_U q))
//
// i.e. the cardinality-weighted mean of the normalized characteristic. A
// source with high availability and many tuples is worth more than one with
// high availability and few tuples.
type WSum struct{}

// Name returns "wsum".
func (WSum) Name() string { return "wsum" }

// Aggregate computes wsum(S); uncooperative sources (unknown cardinality)
// carry zero weight.
func (WSum) Aggregate(ctx *Context, char string) float64 {
	col := ctx.U.NormalizedCharacteristic(char)
	var num, den float64
	for _, id := range ctx.IDs {
		s := ctx.U.Source(id)
		if s.Cardinality <= 0 {
			continue
		}
		w := float64(s.Cardinality)
		num += col[id] * w
		den += w
	}
	if den == 0 {
		return 0
	}
	return clamp01(num / den)
}

// Mean is the unweighted mean of the normalized characteristic over S.
type Mean struct{}

// Name returns "mean".
func (Mean) Name() string { return "mean" }

// Aggregate computes the plain average of normalized values.
func (Mean) Aggregate(ctx *Context, char string) float64 {
	if len(ctx.IDs) == 0 {
		return 0
	}
	col := ctx.U.NormalizedCharacteristic(char)
	sum := 0.0
	for _, id := range ctx.IDs {
		sum += col[id]
	}
	return clamp01(sum / float64(len(ctx.IDs)))
}

// Min is the worst normalized value in S — a bottleneck aggregator, suitable
// for characteristics like availability where the weakest source gates the
// whole system.
type Min struct{}

// Name returns "min".
func (Min) Name() string { return "min" }

// Aggregate computes the minimum normalized value.
func (Min) Aggregate(ctx *Context, char string) float64 {
	if len(ctx.IDs) == 0 {
		return 0
	}
	col := ctx.U.NormalizedCharacteristic(char)
	best := 1.0
	for _, id := range ctx.IDs {
		if v := col[id]; v < best {
			best = v
		}
	}
	return clamp01(best)
}

// Max is the best normalized value in S — suitable when a single excellent
// source suffices (e.g. reputation of the flagship source).
type Max struct{}

// Name returns "max".
func (Max) Name() string { return "max" }

// Aggregate computes the maximum normalized value.
func (Max) Aggregate(ctx *Context, char string) float64 {
	col := ctx.U.NormalizedCharacteristic(char)
	best := 0.0
	for _, id := range ctx.IDs {
		if v := col[id]; v > best {
			best = v
		}
	}
	return clamp01(best)
}

// AggregatorByName resolves a built-in aggregator ("wsum", "mean", "min",
// "max"); it errors on unknown names.
func AggregatorByName(name string) (Aggregator, error) {
	switch name {
	case "wsum":
		return WSum{}, nil
	case "mean":
		return Mean{}, nil
	case "min":
		return Min{}, nil
	case "max":
		return Max{}, nil
	}
	return nil, fmt.Errorf("qef: unknown aggregator %q", name)
}
