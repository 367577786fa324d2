// Parallel cached driver. Load() type-checks and analyzes packages one at a
// time; CheckPackages fans the per-package work out across workers and
// caches each package's diagnostics keyed by everything that could change
// them: analyzer binary, source bytes, and dependency export data. A warm
// cache turns a whole-tree mube-vet run into a handful of file reads.
package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Config controls a CheckPackages run.
type Config struct {
	// Dir is the working directory for go list (any directory inside the
	// module).
	Dir string
	// Analyzers is the set to run, in registry order.
	Analyzers []*Analyzer
	// Parallel caps concurrent package analyses; <= 0 means GOMAXPROCS.
	Parallel int
	// Cache, when non-nil, stores per-package diagnostics across runs.
	Cache *Cache
}

// CheckPackages loads the packages matched by patterns (with test variants),
// analyzes them — in parallel, consulting the cache — and returns the merged,
// sorted diagnostics plus the number of packages analyzed. The result is
// byte-for-byte independent of Parallel and of cache hits: ordering comes
// from the final sort, never from completion order.
func CheckPackages(cfg Config, patterns ...string) ([]Diagnostic, int, error) {
	byPath, order, err := goList(cfg.Dir, patterns, true)
	if err != nil {
		return nil, 0, err
	}
	augmented := map[string]bool{}
	for _, lp := range order {
		if lp.ForTest != "" && strings.HasPrefix(lp.ImportPath, lp.ForTest+" [") {
			augmented[lp.ForTest] = true
		}
	}
	var targets []*listPkg
	for _, lp := range order {
		if isTarget(lp) && !(lp.ForTest == "" && augmented[lp.ImportPath]) {
			targets = append(targets, lp)
		}
	}
	if len(targets) == 0 {
		return nil, 0, fmt.Errorf("no packages matched %s", strings.Join(patterns, " "))
	}

	parallel := cfg.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	results := make([][]Diagnostic, len(targets))
	errs := make([]error, len(targets))
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for i, lp := range targets {
		wg.Add(1)
		go func(i int, lp *listPkg) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = checkOne(cfg, lp, byPath)
		}(i, lp)
	}
	wg.Wait()
	var out []Diagnostic
	for i := range targets {
		if errs[i] != nil {
			return nil, 0, errs[i]
		}
		out = append(out, results[i]...)
	}
	return sortDiagnostics(out), len(targets), nil
}

// checkOne produces one package's diagnostics, through the cache when
// possible.
func checkOne(cfg Config, lp *listPkg, byPath map[string]*listPkg) ([]Diagnostic, error) {
	var key string
	if cfg.Cache != nil {
		var err error
		key, err = cfg.Cache.key(lp, byPath, cfg.Analyzers)
		if err == nil {
			if diags, ok := cfg.Cache.get(key); ok {
				return diags, nil
			}
		} else {
			key = "" // uncacheable (e.g. unreadable input); analyze anyway
		}
	}
	pkg, err := typecheck(lp, byPath)
	if err != nil {
		return nil, err
	}
	diags := runPackage(pkg, cfg.Analyzers)
	if cfg.Cache != nil && key != "" {
		cfg.Cache.put(key, diags)
	}
	return diags, nil
}

// cacheVersion invalidates every entry when the on-disk format or the key
// composition changes.
const cacheVersion = "mube-vet-cache-v1"

// A Cache stores per-package diagnostics under a directory, keyed by a hash
// of the analyzer binary, the analyzer names, the package's source bytes,
// and the export data of every dependency (transitively — export files are
// build-cache artifacts whose hashes already fold in their own deps, but
// walking the import graph keeps the key correct even when the build cache
// reuses a stale file path).
//
// A handle memoizes input-file hashes for its own lifetime, so it assumes
// sources do not change underneath it: open one Cache per run (as the CLI
// does), not one per process pool.
type Cache struct {
	dir     string
	exeHash string

	mu     sync.Mutex
	hashes map[string]string // file path -> content hash
}

// OpenCache opens (creating if needed) the diagnostics cache in dir; an
// empty dir means <user cache dir>/mube-vet.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		base, err := os.UserCacheDir()
		if err != nil {
			return nil, fmt.Errorf("resolving user cache dir: %v", err)
		}
		dir = filepath.Join(base, "mube-vet")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &Cache{dir: dir, hashes: map[string]string{}}
	// Hash the running analyzer binary: any rebuild (new analyzers, changed
	// policies) must miss. Under `go run` the temp binary's content changes
	// with the source, which is exactly the invalidation wanted.
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("resolving analyzer binary: %v", err)
	}
	c.exeHash, err = c.fileHash(exe)
	if err != nil {
		return nil, fmt.Errorf("hashing analyzer binary: %v", err)
	}
	return c, nil
}

// key derives the cache key for one package.
func (c *Cache) key(lp *listPkg, byPath map[string]*listPkg, analyzers []*Analyzer) (string, error) {
	h := sha256.New()
	fmt.Fprintln(h, cacheVersion)
	fmt.Fprintln(h, runtime.Version())
	fmt.Fprintln(h, c.exeHash)
	for _, a := range analyzers {
		fmt.Fprintln(h, a.Name)
	}
	fmt.Fprintln(h, lp.ImportPath)
	fmt.Fprintln(h, lp.Dir)
	for _, name := range append(append([]string{}, lp.GoFiles...), lp.CgoFiles...) {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(lp.Dir, name)
		}
		fh, err := c.fileHash(path)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "src %s %s\n", name, fh)
	}
	// Dependency export data, transitively, in sorted path order.
	deps, err := c.depExports(lp, byPath)
	if err != nil {
		return "", err
	}
	for _, d := range deps {
		fmt.Fprintln(h, d)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// depExports walks lp's import graph and returns "dep <path> <hash>" lines
// for every dependency with export data, sorted.
func (c *Cache) depExports(lp *listPkg, byPath map[string]*listPkg) ([]string, error) {
	seen := map[string]bool{}
	var lines []string
	var visit func(lp *listPkg) error
	visit = func(lp *listPkg) error {
		for _, imp := range lp.Imports {
			if mapped, ok := lp.ImportMap[imp]; ok {
				imp = mapped
			}
			if seen[imp] {
				continue
			}
			seen[imp] = true
			dep := byPath[imp]
			if dep == nil {
				continue // "unsafe" and friends
			}
			if dep.Export != "" {
				fh, err := c.fileHash(dep.Export)
				if err != nil {
					return err
				}
				lines = append(lines, fmt.Sprintf("dep %s %s", imp, fh))
			}
			if err := visit(dep); err != nil {
				return err
			}
		}
		return nil
	}
	if err := visit(lp); err != nil {
		return nil, err
	}
	sort.Strings(lines)
	return lines, nil
}

// fileHash returns the sha256 of a file's contents, memoized for the life of
// the cache handle (export data files are shared by many packages).
func (c *Cache) fileHash(path string) (string, error) {
	c.mu.Lock()
	if h, ok := c.hashes[path]; ok {
		c.mu.Unlock()
		return h, nil
	}
	c.mu.Unlock()
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	h := hex.EncodeToString(sum[:])
	c.mu.Lock()
	c.hashes[path] = h
	c.mu.Unlock()
	return h, nil
}

// get loads a cached result. A missing or unreadable entry is a miss.
func (c *Cache) get(key string) ([]Diagnostic, bool) {
	data, err := os.ReadFile(filepath.Join(c.dir, key+".json"))
	if err != nil {
		return nil, false
	}
	var diags []Diagnostic
	if err := json.Unmarshal(data, &diags); err != nil {
		return nil, false
	}
	return diags, true
}

// put stores a result atomically (tmp + rename) so concurrent runs never
// observe torn entries.
func (c *Cache) put(key string, diags []Diagnostic) {
	data, err := json.Marshal(diags)
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(name)
		return
	}
	if err := os.Rename(name, filepath.Join(c.dir, key+".json")); err != nil {
		_ = os.Remove(name)
	}
}
