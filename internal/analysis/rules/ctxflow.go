package rules

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mube/internal/analysis"
	"mube/internal/analysis/cfg"
)

// CtxFlow enforces the cancellation contract from the fault-tolerance PR:
// solvers must return best-so-far within one evaluation batch of ctx going
// dead. Three checks:
//
//  1. In the solver packages (internal/opt/...), any loop that can call the
//     evaluator must test the context each iteration — directly
//     (ctx.Err/ctx.Done), through Search.Stopped, or through an in-package
//     helper that transitively does one of those. A loop that evaluates
//     without checking runs to its iteration budget no matter what the user
//     canceled.
//  2. Anywhere in internal/, a context.Context parameter that the function
//     body never mentions is a dropped cancellation path.
//  3. Anywhere in internal/, context.Background()/context.TODO() mints an
//     uncancelable context below the API boundary; contexts must flow down
//     from the caller (the documented nil-reset sites carry ignore
//     directives).
//
// The per-iteration check is syntactic over the loop body (nested function
// literals excluded); whether the test is reached on a given path is not
// decided — a check on some path per iteration satisfies the rule.
var CtxFlow = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "solver loops that call the evaluator must test ctx (Err/Done/Stopped) " +
		"every iteration; internal/ functions must not drop ctx params or mint " +
		"context.Background()/TODO()",
	Run: runCtxFlow,
}

// ctxFlowLoopScope is where the per-iteration check applies: the solver
// packages driving the evaluator.
var ctxFlowLoopScope = []string{
	modulePath + "/internal/opt",
}

// ctxFlowScope is where the dropped-param and Background checks apply.
var ctxFlowScope = []string{
	modulePath + "/internal",
}

// ctxFlowAllow exempts the experiment harness (it owns its lifecycles and
// deliberately runs detached contexts) and test scaffolding.
var ctxFlowAllow = []string{
	modulePath + "/internal/exp",
	modulePath + "/internal/testutil",
}

// evalMethods are the evaluator entry points whose presence makes a loop
// budget-relevant, keyed by receiver type in internal/opt.
var evalMethods = map[string]map[string]bool{
	"Evaluator": {"Eval": true, "EvalBatch": true},
	"Search":    {"EvalMoves": true},
}

func runCtxFlow(pass *analysis.Pass) {
	if !underAny(pass.Path, ctxFlowScope) || underAny(pass.Path, ctxFlowAllow) {
		return
	}
	inLoopScope := underAny(pass.Path, ctxFlowLoopScope)
	sums := cfg.Summarize(pass.Files, pass.TypesInfo)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkDroppedCtx(pass, n)
				}
			case *ast.ForStmt:
				if inLoopScope {
					checkLoopCtx(pass, sums, n.Pos(), n.Cond, n.Body)
				}
			case *ast.RangeStmt:
				if inLoopScope {
					checkLoopCtx(pass, sums, n.Pos(), nil, n.Body)
				}
			case *ast.CallExpr:
				if pkgPath, name := pkgFunc(pass, n); pkgPath == "context" &&
					(name == "Background" || name == "TODO") {
					pass.Reportf(n.Pos(),
						"context.%s() in an internal package mints an uncancelable context; accept a ctx from the caller instead",
						name)
				}
			}
			return true
		})
	}
}

// checkLoopCtx reports a loop that can call the evaluator but whose
// condition and body never test the context.
func checkLoopCtx(pass *analysis.Pass, sums *cfg.Summaries, pos token.Pos, cond ast.Expr, body *ast.BlockStmt) {
	callsEval := false
	checksCtx := false
	scan := func(root ast.Node) {
		cfg.Inspect(root, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isEvalCall(pass, call) {
				callsEval = true
			}
			if isCtxTest(pass, sums, call) {
				checksCtx = true
			}
			return true
		})
	}
	if cond != nil {
		scan(cond)
	}
	scan(body)
	if callsEval && !checksCtx {
		pass.Reportf(pos,
			"loop calls the evaluator but never tests the context (ctx.Err/ctx.Done/Search.Stopped); cancellation would not stop it")
	}
}

// isEvalCall reports whether call invokes one of the evaluator entry points
// on internal/opt's Evaluator or Search.
func isEvalCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn := methodOf(pass, sel)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != modulePath+"/internal/opt" {
		return false
	}
	set := evalMethods[recvTypeName(fn)]
	return set != nil && set[fn.Name()]
}

// isCtxTest reports whether call is a per-iteration cancellation test:
// ctx.Err()/ctx.Done(), a Stopped method on a module type, or an in-package
// helper that transitively performs one of those.
func isCtxTest(pass *analysis.Pass, sums *cfg.Summaries, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		// Direct call of an in-package helper: stopped(ctx), s.done()...
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
		return ok && sums.ChecksCtxTransitive(fn)
	}
	if sel.Sel.Name == "Err" || sel.Sel.Name == "Done" {
		if t := pass.TypesInfo.TypeOf(sel.X); t != nil {
			if named, ok := t.(*types.Named); ok &&
				named.Obj().Name() == "Context" && named.Obj().Pkg() != nil &&
				named.Obj().Pkg().Path() == "context" {
				return true
			}
		}
	}
	fn := methodOf(pass, sel)
	if fn == nil {
		return false
	}
	if fn.Name() == "Stopped" && fn.Pkg() != nil &&
		strings.HasPrefix(fn.Pkg().Path(), modulePath+"/") {
		return true
	}
	return sums.ChecksCtxTransitive(fn)
}

// methodOf resolves a selector call to its *types.Func (method or qualified
// function), or nil.
func methodOf(pass *analysis.Pass, sel *ast.SelectorExpr) *types.Func {
	if s, ok := pass.TypesInfo.Selections[sel]; ok {
		fn, _ := s.Obj().(*types.Func)
		return fn
	}
	fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return fn
}

// checkDroppedCtx reports a context.Context parameter the body never uses.
func checkDroppedCtx(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Type.Params == nil {
		return
	}
	for _, field := range fd.Type.Params.List {
		if !isContextType(pass.TypesInfo.TypeOf(field.Type)) {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj := pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			used := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					used = true
				}
				return !used
			})
			if !used {
				pass.Reportf(name.Pos(),
					"ctx parameter %s is never used; the function cannot observe cancellation (drop it or plumb it through)",
					name.Name)
			}
		}
	}
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
