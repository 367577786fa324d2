package fault

import "testing"

// FuzzParsePlan checks the fault-plan parser at its trust boundary (the
// -faults flag of the CLIs): no input panics, every accepted plan's fields
// lie in the ranges Plan documents, and String is a fixed point of
// ParsePlan, so the plan a run header prints re-parses to the same text.
// The seed corpus is testdata/fuzz/FuzzParsePlan; `make fuzz-smoke` runs
// the target, and each crasher it finds is committed there as a regression
// input.
func FuzzParsePlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePlan(s)
		if err != nil {
			return
		}
		if !(p.Rate >= 0 && p.Rate <= 1) || !(p.HandshakeFrac >= 0 && p.HandshakeFrac <= 1) ||
			p.Latency < 0 || p.FlapPeriod < 0 || !(p.FlapDuty >= 0 && p.FlapDuty < 1) {
			t.Fatalf("ParsePlan(%q) = %+v: a field is out of its documented range", s, p)
		}
		out := p.String()
		q, err := ParsePlan(out)
		if err != nil {
			t.Fatalf("ParsePlan(%q).String() = %q does not parse: %v", s, out, err)
		}
		if again := q.String(); again != out {
			t.Fatalf("ParsePlan(%q).String() = %q re-prints as %q", s, out, again)
		}
	})
}
