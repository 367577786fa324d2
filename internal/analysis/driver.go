// The driver: one `go list` over the patterns, one type-check and analysis
// per target package on a GOMAXPROCS-sized worker pool, and one global sort.
package analysis

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
)

// CheckPackages enumerates the packages matched by patterns in the module
// rooted at (or containing) dir, including their test variants, analyzes
// each one, and returns the merged, sorted diagnostics plus the number of
// packages analyzed. Any go-list or type-check failure aborts the run:
// mube-vet treats a module it cannot fully check as a hard error, not as a
// package to skip. The result does not depend on the worker count: ordering
// comes from the final sort, never from completion order.
func CheckPackages(dir string, analyzers []*Analyzer, patterns ...string) ([]Diagnostic, int, error) {
	byPath, order, err := goList(dir, patterns, true)
	if err != nil {
		return nil, 0, err
	}
	pkgs := targets(order)
	if len(pkgs) == 0 {
		return nil, 0, fmt.Errorf("no packages matched %s", strings.Join(patterns, " "))
	}

	results := make([][]Diagnostic, len(pkgs))
	errs := make([]error, len(pkgs))
	jobs := make(chan int, len(pkgs))
	for i := range pkgs {
		jobs <- i
	}
	close(jobs)
	var wg sync.WaitGroup
	for w := runtime.GOMAXPROCS(0); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				pkg, err := typecheck(pkgs[i], byPath)
				if err != nil {
					errs[i] = err
					continue
				}
				results[i] = runPackage(pkg, analyzers)
			}
		}()
	}
	wg.Wait()
	var out []Diagnostic
	for i := range pkgs {
		if errs[i] != nil {
			return nil, 0, errs[i]
		}
		out = append(out, results[i]...)
	}
	return sortDiagnostics(out), len(pkgs), nil
}

// targets picks, in go list order, the packages to analyze rather than
// consume as dependencies. In-package test variants ("p [p.test]") contain
// the library files plus the _test.go files; where one exists the bare
// package is redundant, and analyzing both would double-report every
// library file.
func targets(order []*listPkg) []*listPkg {
	augmented := map[string]bool{}
	for _, lp := range order {
		if lp.ForTest != "" && strings.HasPrefix(lp.ImportPath, lp.ForTest+" [") {
			augmented[lp.ForTest] = true
		}
	}
	var out []*listPkg
	for _, lp := range order {
		if isTarget(lp) && !(lp.ForTest == "" && augmented[lp.ImportPath]) {
			out = append(out, lp)
		}
	}
	return out
}

// isTarget reports whether lp is a matched module package or one of its
// test variants; the synthesized ".test" main is skipped.
func isTarget(lp *listPkg) bool {
	if lp.Standard || lp.Module == nil {
		return false
	}
	if strings.HasSuffix(lp.ImportPath, ".test") {
		return false
	}
	if lp.ForTest != "" {
		// "p [p.test]" and "p_test [p.test]" count as targets exactly
		// when p itself was matched; go list marks the variants DepOnly
		// or not inconsistently across versions, so key off ForTest.
		// Dependency recompilations ("q [p.test]": q imported by p's
		// tests while importing p) also carry ForTest=p but contain no
		// test files of p — q's own files are already analyzed as plain
		// q, so the variant is consumed as a dependency only.
		base := lp.ImportPath
		if i := strings.Index(base, " ["); i >= 0 {
			base = base[:i]
		}
		return base == lp.ForTest || base == lp.ForTest+"_test"
	}
	return !lp.DepOnly
}
