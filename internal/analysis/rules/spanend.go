package rules

import (
	"go/ast"
	"go/types"

	"mube/internal/analysis"
	"mube/internal/analysis/cfg"
)

// SpanEnd requires every span opened with telemetry.BeginSpan (or any helper
// returning telemetry.Span, like Search.BeginSolve) to reach an End on every
// path from the begin to the function's exit. A span that is never ended
// stays on the recorder's stack, so every later event misparents under it
// and the golden traces the determinism suite pins stop matching; End's
// defensive pop limits the damage but cannot restore the lost tree shape.
//
// End must appear in a deferred statement, which runs on every path, or on
// every path from the begin statement to exit (cfg.Graph.EveryPathFrom, the
// query leakjoin also asks). Ownership transfer counts as a release —
// returning the span, passing it to another function, or assigning it onward
// hands the End obligation to the receiver (intraprocedurally; the callee is
// not consulted). A span whose result is discarded (`_ =` or a bare
// expression statement) can never be ended and is flagged at the call.
//
// Scope: the whole module including tests — leaked spans corrupt traces
// wherever they are recorded, and test fixtures that must leak (truncated
// traces, defensive-pop coverage) carry //mube:vet-ignore spanend.
var SpanEnd = &analysis.Analyzer{
	Name: "spanend",
	Doc: "every telemetry span begun must reach End (directly, deferred, or by " +
		"ownership transfer) on all paths from begin to return",
	Run: runSpanEnd,
}

func runSpanEnd(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSpanEnds(pass, fd.Body)
			// Function literals open spans too; each body is its own graph.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkSpanEnds(pass, lit.Body)
				}
				return true
			})
		}
	}
}

// isSpanType reports whether t is telemetry.Span.
func isSpanType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Span" && obj.Pkg() != nil &&
		obj.Pkg().Path() == modulePath+"/internal/telemetry"
}

// spanDef is one statement binding a freshly begun span to a variable.
type spanDef struct {
	stmt ast.Stmt
	call *ast.CallExpr
	obj  types.Object
}

// checkSpanEnds finds every span begun in body and verifies each is released.
func checkSpanEnds(pass *analysis.Pass, body *ast.BlockStmt) {
	var defs []spanDef
	cfg.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 || len(n.Lhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
			if !ok || !isSpanType(pass.TypesInfo.TypeOf(call)) {
				return true
			}
			id, ok := n.Lhs[0].(*ast.Ident)
			if !ok {
				return true // span stored in a field: conservative skip
			}
			if id.Name == "_" {
				pass.Reportf(call.Pos(),
					"span discarded without End; it stays on the recorder's stack and misparents every later event")
				return true
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj != nil {
				defs = append(defs, spanDef{stmt: n, call: call, obj: obj})
			}
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok &&
				isSpanType(pass.TypesInfo.TypeOf(call)) {
				pass.Reportf(call.Pos(),
					"span discarded without End; it stays on the recorder's stack and misparents every later event")
			}
		}
		return true
	})
	if len(defs) == 0 {
		return
	}
	g := cfg.New(body)
	for _, d := range defs {
		if spanReleased(pass, g, d) {
			continue
		}
		pass.Reportf(d.call.Pos(),
			"span has no End on some path to return; it stays on the recorder's stack and misparents every later event")
	}
}

// spanReleased reports whether d's span is ended (or its ownership handed
// off) on every path from the begin statement to the function's exit.
func spanReleased(pass *analysis.Pass, g *cfg.Graph, d spanDef) bool {
	// A deferred release runs on every path to exit. Deferred closures run
	// too, so here (and only here) nested literals are inspected.
	for _, def := range g.Defers {
		ok := false
		ast.Inspect(def.Call, func(n ast.Node) bool {
			if ok {
				return false
			}
			if releasesSpan(pass, n, d.obj) {
				ok = true
				return false
			}
			return true
		})
		if ok {
			return true
		}
	}
	return g.EveryPathFrom(d.stmt, func(n ast.Node, _ *cfg.Block) bool {
		return releasesSpan(pass, n, d.obj)
	})
}

// releasesSpan reports whether the single node m releases the span: calls
// End on it, passes it to another function, returns it, or assigns it onward
// to a non-blank destination (each an ownership transfer).
func releasesSpan(pass *analysis.Pass, m ast.Node, obj types.Object) bool {
	switch m := m.(type) {
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "End" {
			if o := rootObj(pass, sel.X); o != nil && o == obj {
				return true
			}
		}
		for _, arg := range m.Args {
			if o := rootObj(pass, arg); o != nil && o == obj {
				return true
			}
		}
	case *ast.ReturnStmt:
		for _, res := range m.Results {
			if o := rootObj(pass, res); o != nil && o == obj {
				return true
			}
		}
	case *ast.AssignStmt:
		// `other = sp` hands the span off; `_ = sp` is only the
		// unused-variable idiom and releases nothing.
		allBlank := true
		for _, lhs := range m.Lhs {
			if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
				allBlank = false
			}
		}
		if allBlank {
			return false
		}
		for _, rhs := range m.Rhs {
			if o := rootObj(pass, rhs); o != nil && o == obj {
				return true
			}
		}
	}
	return false
}
