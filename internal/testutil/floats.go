package testutil

import "mube/internal/testutil/approx"

// AlmostEqual reports whether a and b differ by at most approx.Epsilon. It
// re-exports the approx helper so tests that already build on testutil need
// only one import. Packages beneath testutil in the dependency order (source,
// schema, pcsa, minhash) import testutil/approx directly instead.
func AlmostEqual(a, b float64) bool { return approx.AlmostEqual(a, b) }
