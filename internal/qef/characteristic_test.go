package qef

import (
	"math"
	"math/rand"
	"testing"

	"mube/internal/schema"
	"mube/internal/source"
)

// normValue is the per-source normalization the aggregators computed before
// the universe memoized characteristic columns: source id's value normalized
// into [0,1] by the universe range, 0 when missing, 1 on a degenerate range.
// It stays as the oracle the columns are checked against.
func normValue(ctx *Context, id schema.SourceID, char string) float64 {
	min, max, ok := ctx.U.CharacteristicRange(char)
	if !ok {
		return 0
	}
	v, has := ctx.U.Source(id).Characteristic(char)
	if !has {
		return 0
	}
	if max <= min {
		return 1
	}
	return (v - min) / (max - min)
}

// oracleAggregate is the built-in aggregator name computed with normValue per
// source, in the same summation order as the column-reading aggregators.
func oracleAggregate(name string, ctx *Context, char string) float64 {
	switch name {
	case "wsum":
		var num, den float64
		for _, id := range ctx.IDs {
			s := ctx.U.Source(id)
			if s.Cardinality <= 0 {
				continue
			}
			w := float64(s.Cardinality)
			num += normValue(ctx, id, char) * w
			den += w
		}
		if den == 0 {
			return 0
		}
		return clamp01(num / den)
	case "mean":
		if len(ctx.IDs) == 0 {
			return 0
		}
		sum := 0.0
		for _, id := range ctx.IDs {
			sum += normValue(ctx, id, char)
		}
		return clamp01(sum / float64(len(ctx.IDs)))
	case "min":
		if len(ctx.IDs) == 0 {
			return 0
		}
		best := 1.0
		for _, id := range ctx.IDs {
			if v := normValue(ctx, id, char); v < best {
				best = v
			}
		}
		return clamp01(best)
	case "max":
		best := 0.0
		for _, id := range ctx.IDs {
			if v := normValue(ctx, id, char); v > best {
				best = v
			}
		}
		return clamp01(best)
	}
	panic("unknown aggregator " + name)
}

// columnUniverse mixes the cases normalization distinguishes: "mttf" varies
// and one source lacks it, "fees" has a degenerate range, "lat" is defined by
// one source only, and source 5 is uncooperative (zero weight under wsum).
func columnUniverse(t testing.TB) *source.Universe {
	t.Helper()
	u := source.NewUniverse(sigCfg)
	chars := []map[string]float64{
		{"mttf": 37.5, "fees": 2},
		{"mttf": 140.25, "fees": 2, "lat": 310},
		{"fees": 2},
		{"mttf": 12.125},
		{"mttf": 99.75, "fees": 2},
		{"mttf": 250, "fees": 2},
	}
	for i, cs := range chars {
		var s *source.Source
		if i == 5 {
			s = source.Uncooperative("uncoop", schema.NewSchema("q"))
		} else {
			s = tupleRange(t, uint64(i)*3000, uint64(i)*3000+uint64(1000+700*i), "a")
		}
		for k, v := range cs {
			s.SetCharacteristic(k, v)
		}
		mustAdd(t, u, s)
	}
	return u
}

// checkColumnsAgainstOracle requires, for every characteristic and built-in
// aggregator over seeded random subsets, Q from the universe's column to
// equal Q from the per-source oracle bit for bit, and every column entry to
// equal normValue.
func checkColumnsAgainstOracle(t *testing.T, u *source.Universe, r *rand.Rand) {
	t.Helper()
	for _, char := range []string{"mttf", "fees", "lat", "nope"} {
		col := u.NormalizedCharacteristic(char)
		if len(col) != u.Len() {
			t.Fatalf("%s column has %d entries for %d sources", char, len(col), u.Len())
		}
		all := NewContext(u, u.IDs())
		for id, v := range col {
			if want := normValue(all, schema.SourceID(id), char); math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("%s column[%d] = %v, per-source normalization %v", char, id, v, want)
			}
		}
		for trial := 0; trial < 40; trial++ {
			var sel []schema.SourceID
			for id := 0; id < u.Len(); id++ {
				if r.Intn(2) == 0 {
					sel = append(sel, schema.SourceID(id))
				}
			}
			c := NewContext(u, sel)
			for _, name := range []string{"wsum", "mean", "min", "max"} {
				agg, err := AggregatorByName(name)
				if err != nil {
					t.Fatal(err)
				}
				got, want := agg.Aggregate(c, char), oracleAggregate(name, c, char)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s(%s) on %v: column %v, oracle %v", name, char, sel, got, want)
				}
			}
		}
	}
}

// TestCharacteristicColumns pins the memoized columns to the per-source
// formula, and checks that Add, Remove and UpdateSynopsis each drop the memo
// so the next read rebuilds the column for the new universe.
func TestCharacteristicColumns(t *testing.T) {
	u := columnUniverse(t)
	r := rand.New(rand.NewSource(17))
	checkColumnsAgainstOracle(t, u, r)

	rebuilt := func(step string, before []float64) {
		t.Helper()
		after := u.NormalizedCharacteristic("mttf")
		if len(before) == len(after) && &before[0] == &after[0] {
			t.Fatalf("after %s: NormalizedCharacteristic returned the stale column", step)
		}
		checkColumnsAgainstOracle(t, u, r)
	}

	before := u.NormalizedCharacteristic("mttf")
	wide := tupleRange(t, 90000, 91000, "b")
	wide.SetCharacteristic("mttf", 900) // widens the range
	mustAdd(t, u, wide)
	rebuilt("Add", before)

	before = u.NormalizedCharacteristic("mttf")
	if _, err := u.Remove([]schema.SourceID{3, 6}); err != nil { // the min and the max
		t.Fatal(err)
	}
	rebuilt("Remove", before)

	before = u.NormalizedCharacteristic("mttf")
	if err := u.Degrade(0); err != nil {
		t.Fatal(err)
	}
	rebuilt("UpdateSynopsis", before)
}
