package cfg

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// RootKind classifies the base object of a write's lvalue chain: for
// `x.f[k] = v` the root is x, and whether x is a local, a parameter, the
// receiver, a package-level variable, or a variable captured from an
// enclosing function decides whether the write can be observed outside the
// function.
type RootKind int

const (
	// RootLocal is a variable declared inside the analyzed body.
	RootLocal RootKind = iota
	// RootParam is a parameter or named result of the analyzed function.
	RootParam
	// RootReceiver is the method receiver.
	RootReceiver
	// RootGlobal is a package-level variable.
	RootGlobal
	// RootCaptured is a variable from an enclosing function (free variable
	// of a function literal).
	RootCaptured
	// RootUnknown marks lvalues whose base is not an identifier (e.g.
	// `f().x = v`).
	RootUnknown
)

func (k RootKind) String() string {
	switch k {
	case RootLocal:
		return "local"
	case RootParam:
		return "parameter"
	case RootReceiver:
		return "receiver"
	case RootGlobal:
		return "package-level variable"
	case RootCaptured:
		return "captured variable"
	}
	return "unknown"
}

// A Write is one assignment (or delete) recorded by a summary.
type Write struct {
	Pos  token.Pos
	Root RootKind
	// Obj is the root object, nil when RootUnknown.
	Obj types.Object
	// Map is set when the lvalue chain indexes a map (or the write is a
	// delete): concurrent map writes fault even when "benign".
	Map bool
	// Indexed is set when the lvalue chain indexes a slice or array —
	// workers writing disjoint slots of a shared slice is the repo's
	// sanctioned fan-out result pattern.
	Indexed bool
	// Direct is set when the lvalue is the bare root identifier — the
	// binding itself is reassigned, not an element or field of it.
	Direct bool
}

// A Call is one statically resolved call site.
type Call struct {
	Pos token.Pos
	Fn  *types.Func
}

// A Summary records one function body's dataflow-relevant facts.
type Summary struct {
	Writes []Write
	Calls  []Call
	// Dynamic are call sites through interfaces or function values — edges
	// the static table cannot follow.
	Dynamic []token.Pos
	// ChanOps are channel sends, receives, closes, selects, and
	// channel-range statements.
	ChanOps []token.Pos
	// Spawns are go statements.
	Spawns []token.Pos
	// ChecksCtx is set when the body calls Err or Done on a
	// context.Context value.
	ChecksCtx bool
}

// Summaries is a per-package call-summary table: one Summary per function
// or method declared (with a body) in the package's files. Imported
// functions appear only as Call targets — their types come from export
// data, their bodies are invisible, and analyzers decide by policy what to
// assume about them.
type Summaries struct {
	funcs map[*types.Func]*Summary
}

// Summarize builds the call-summary table for a package's files.
func Summarize(files []*ast.File, info *types.Info) *Summaries {
	t := &Summaries{funcs: map[*types.Func]*Summary{}}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			t.funcs[fn] = SummarizeBody(info, fn.Type().(*types.Signature), fd.Body)
		}
	}
	return t
}

// Of returns fn's summary, or nil when fn is not declared in the package.
func (t *Summaries) Of(fn *types.Func) *Summary { return t.funcs[fn] }

// Reachable returns the in-table functions reachable from roots through
// static call edges (roots included when in the table), ordered by source
// position so analyzer reports are deterministic.
func (t *Summaries) Reachable(roots []*types.Func) []*types.Func {
	seen := map[*types.Func]bool{}
	var out []*types.Func
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if fn == nil || seen[fn] {
			return
		}
		seen[fn] = true
		s := t.funcs[fn]
		if s == nil {
			return
		}
		out = append(out, fn)
		for _, c := range s.Calls {
			visit(c.Fn)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// ChecksCtxTransitive reports whether fn, or any in-table function reachable
// from it, checks a context (ctx.Err/ctx.Done).
func (t *Summaries) ChecksCtxTransitive(fn *types.Func) bool {
	seen := map[*types.Func]bool{}
	var visit func(fn *types.Func) bool
	visit = func(fn *types.Func) bool {
		if fn == nil || seen[fn] {
			return false
		}
		seen[fn] = true
		s := t.funcs[fn]
		if s == nil {
			return false
		}
		if s.ChecksCtx {
			return true
		}
		for _, c := range s.Calls {
			if visit(c.Fn) {
				return true
			}
		}
		return false
	}
	return visit(fn)
}

// SummarizeBody summarizes one function body against its signature. It is
// exported (rather than private to Summarize) so analyzers can summarize
// function literals — e.g. the closure of a go statement — on demand.
//
// Nested function literals are folded into the enclosing summary: their
// effects are attributed to the function whether or not the literal is ever
// invoked, a deliberate overapproximation that errs toward reporting.
func SummarizeBody(info *types.Info, sig *types.Signature, body *ast.BlockStmt) *Summary {
	s := &Summary{}
	w := summaryWalker{info: info, sig: sig, body: body, out: s}
	w.walk(body)
	return s
}

type summaryWalker struct {
	info *types.Info
	sig  *types.Signature
	body *ast.BlockStmt
	out  *Summary
}

func (w *summaryWalker) walk(n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				w.write(lhs, m.Tok == token.DEFINE)
			}
		case *ast.IncDecStmt:
			w.write(m.X, false)
		case *ast.SendStmt:
			w.out.ChanOps = append(w.out.ChanOps, m.Pos())
		case *ast.SelectStmt:
			w.out.ChanOps = append(w.out.ChanOps, m.Pos())
		case *ast.RangeStmt:
			if t := w.info.TypeOf(m.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					w.out.ChanOps = append(w.out.ChanOps, m.Pos())
				}
			}
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				w.out.ChanOps = append(w.out.ChanOps, m.Pos())
			}
		case *ast.GoStmt:
			w.out.Spawns = append(w.out.Spawns, m.Pos())
		case *ast.CallExpr:
			w.call(m)
		}
		return true
	})
}

// write records one lvalue, classifying its root.
func (w *summaryWalker) write(lhs ast.Expr, define bool) {
	rec := Write{Pos: lhs.Pos()}
	expr := lhs
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			if t := w.info.TypeOf(e.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					rec.Map = true
				default:
					rec.Indexed = true
				}
			}
			expr = e.X
		default:
			goto resolved
		}
	}
resolved:
	id, ok := expr.(*ast.Ident)
	if !ok {
		rec.Root = RootUnknown
		w.out.Writes = append(w.out.Writes, rec)
		return
	}
	if id.Name == "_" {
		return
	}
	obj := w.info.Uses[id]
	if obj == nil {
		obj = w.info.Defs[id]
		if obj != nil && expr == lhs {
			return // `x := ...` introduces a new local; not a shared write
		}
	}
	if obj == nil {
		rec.Root = RootUnknown
		w.out.Writes = append(w.out.Writes, rec)
		return
	}
	if define && expr == lhs && obj.Pos() >= w.body.Pos() && obj.Pos() <= w.body.End() {
		return // re-declared local in a multi-assign :=
	}
	rec.Obj = obj
	rec.Root = w.classify(obj)
	rec.Direct = expr == lhs
	w.out.Writes = append(w.out.Writes, rec)
}

// classify decides where obj lives relative to the summarized function.
func (w *summaryWalker) classify(obj types.Object) RootKind {
	if w.sig != nil {
		if recv := w.sig.Recv(); recv != nil && obj == recv {
			return RootReceiver
		}
		params := w.sig.Params()
		for i := 0; i < params.Len(); i++ {
			if obj == params.At(i) {
				return RootParam
			}
		}
		results := w.sig.Results()
		for i := 0; i < results.Len(); i++ {
			if obj == results.At(i) {
				return RootParam
			}
		}
	}
	if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return RootGlobal
	}
	if obj.Pos() < w.body.Pos() || obj.Pos() > w.body.End() {
		return RootCaptured
	}
	return RootLocal
}

// call records one call site: a static edge when the callee is a declared
// function or concrete method, a channel op for close(), a dynamic site for
// interface methods and function values, and the ChecksCtx fact for
// ctx.Err/ctx.Done.
func (w *summaryWalker) call(call *ast.CallExpr) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch o := w.info.Uses[fun].(type) {
		case *types.Func:
			w.out.Calls = append(w.out.Calls, Call{Pos: call.Pos(), Fn: o})
		case *types.Builtin:
			if o.Name() == "close" {
				w.out.ChanOps = append(w.out.ChanOps, call.Pos())
			}
			if o.Name() == "delete" && len(call.Args) == 2 {
				w.write(&ast.IndexExpr{X: call.Args[0], Index: call.Args[1]}, false)
			}
		case *types.Var:
			w.out.Dynamic = append(w.out.Dynamic, call.Pos())
		case nil:
			// conversion to a local type or a Defs entry; ignore
		}
	case *ast.SelectorExpr:
		if w.isCtxCheck(fun) {
			w.out.ChecksCtx = true
		}
		if sel, ok := w.info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				if types.IsInterface(sel.Recv()) {
					w.out.Dynamic = append(w.out.Dynamic, call.Pos())
				} else {
					w.out.Calls = append(w.out.Calls, Call{Pos: call.Pos(), Fn: fn})
				}
				return
			}
			// field of function type
			w.out.Dynamic = append(w.out.Dynamic, call.Pos())
			return
		}
		// Qualified call pkg.F.
		if fn, ok := w.info.Uses[fun.Sel].(*types.Func); ok {
			w.out.Calls = append(w.out.Calls, Call{Pos: call.Pos(), Fn: fn})
		}
	default:
		// Call of a function value expression or a conversion.
		if tv, ok := w.info.Types[call.Fun]; ok && tv.IsType() {
			return
		}
		w.out.Dynamic = append(w.out.Dynamic, call.Pos())
	}
}

// isCtxCheck reports whether sel is ctx.Err or ctx.Done on a
// context.Context value.
func (w *summaryWalker) isCtxCheck(sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Err" && sel.Sel.Name != "Done" {
		return false
	}
	t := w.info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
