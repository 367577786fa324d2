// Package loading. The loader shells out to the go command — the one
// toolchain dependency every Go repo already has — to enumerate packages and
// produce export data for their dependencies, then parses and type-checks
// the target packages from source with go/parser and go/types. This is the
// same division of labor as `go vet`'s unitchecker, rebuilt on the stdlib.
package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one parsed and type-checked target package.
type Package struct {
	// ImportPath is the raw path as the go command reports it, e.g.
	// "mube/internal/qef [mube/internal/qef.test]" for a test variant.
	ImportPath string
	// Path is the logical path used for policy scoping (the package under
	// test for test variants).
	Path string
	Dir  string

	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	ImportMap  map[string]string
	Standard   bool
	DepOnly    bool
	ForTest    string
	Module     *struct{ Path, Dir string }
}

// goList runs `go list -deps -export -json` (plus -test when test variants
// are wanted) and decodes the stream.
func goList(dir string, patterns []string, test bool) (map[string]*listPkg, []*listPkg, error) {
	args := []string{"list", "-deps", "-export", "-json"}
	if test {
		args = append(args, "-test")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, nil, fmt.Errorf("go list %s: %s", strings.Join(patterns, " "), msg)
	}
	byPath := map[string]*listPkg{}
	var order []*listPkg
	dec := json.NewDecoder(&stdout)
	for {
		lp := new(listPkg)
		if err := dec.Decode(lp); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		byPath[lp.ImportPath] = lp
		order = append(order, lp)
	}
	return byPath, order, nil
}

// typecheck parses lp's files and type-checks them, resolving imports
// through the export data the go list pass already produced.
func typecheck(lp *listPkg, byPath map[string]*listPkg) (*Package, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range append(append([]string{}, lp.GoFiles...), lp.CgoFiles...) {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(lp.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", lp.ImportPath, err)
		}
		files = append(files, f)
	}
	typesPath := lp.ImportPath
	if i := strings.Index(typesPath, " ["); i >= 0 {
		typesPath = typesPath[:i]
	}
	// Policy scoping maps the external test package "p_test" back onto p;
	// every other package — including a dependency recompiled against a test
	// variant ("q [p.test]") — keeps its own path, so q's per-package
	// allowlists still apply when q is rebuilt for p's tests.
	logical := typesPath
	if lp.ForTest != "" && typesPath == lp.ForTest+"_test" {
		logical = lp.ForTest
	}
	info := newTypesInfo()
	conf := types.Config{Importer: newExportImporter(fset, lp.ImportMap, byPath)}
	tpkg, err := conf.Check(typesPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
	}
	return &Package{
		ImportPath: lp.ImportPath,
		Path:       logical,
		Dir:        lp.Dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// exportImporter resolves imports for one target package: the path is first
// rewritten through the target's ImportMap (so a test variant sees the
// test-augmented build of the package under test), then handed to the
// toolchain's gc importer reading the export file go list reported.
type exportImporter struct {
	importMap map[string]string
	byPath    map[string]*listPkg
	gc        types.ImporterFrom
}

func newExportImporter(fset *token.FileSet, importMap map[string]string, byPath map[string]*listPkg) *exportImporter {
	e := &exportImporter{importMap: importMap, byPath: byPath}
	e.gc = importer.ForCompiler(fset, "gc", e.lookup).(types.ImporterFrom)
	return e
}

func (e *exportImporter) lookup(path string) (io.ReadCloser, error) {
	if mapped, ok := e.importMap[path]; ok {
		path = mapped
	}
	lp := e.byPath[path]
	if lp == nil {
		return nil, fmt.Errorf("import %q: not in go list output", path)
	}
	if lp.Export == "" {
		return nil, fmt.Errorf("import %q: go list produced no export data", path)
	}
	return os.Open(lp.Export)
}

func (e *exportImporter) Import(path string) (*types.Package, error) {
	return e.ImportFrom(path, "", 0)
}

func (e *exportImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return e.gc.ImportFrom(path, dir, mode)
}

// LoadDir parses every .go file in dir as a single package and type-checks
// it under the given import path, resolving its imports (stdlib only)
// through fresh export data. It exists for analyzer golden tests, whose
// fixture packages live under testdata/ where the go command will not list
// them — the importPath override lets a fixture impersonate any module path
// a path-scoped rule cares about.
func LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	imports := map[string]bool{}
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, ent.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			imports[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	byPath := map[string]*listPkg{}
	if len(imports) > 0 {
		paths := make([]string, 0, len(imports))
		for p := range imports {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		byPath, _, err = goList(dir, paths, false)
		if err != nil {
			return nil, err
		}
	}
	info := newTypesInfo()
	conf := types.Config{Importer: newExportImporter(fset, nil, byPath)}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", dir, err)
	}
	return &Package{
		ImportPath: importPath,
		Path:       importPath,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}
