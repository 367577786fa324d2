package rules

import (
	"go/ast"
	"go/token"
	"go/types"

	"mube/internal/analysis"
	"mube/internal/analysis/cfg"
)

// LeakJoin requires every goroutine spawned in library code to have a join:
// on every path from the go statement to the function's exit, the spawner
// must pass a WaitGroup.Wait or a channel receive before returning. A
// goroutine with no join outlives its spawner, holds references past
// cancellation, and — in this repo — can write telemetry or solver state
// after the solve returned, which is exactly the bug class the faults suite
// chases dynamically.
//
// For `go func() {...}()` the join is object-matched: if the closure calls
// Done on a captured WaitGroup, the join is Wait on that same WaitGroup; if
// it sends on or closes a captured channel, the join is a receive (or range)
// on that channel. For `go f(...)` the callee's body is not consulted and
// any Wait or channel receive on the exit paths counts. Joins in deferred
// statements count on every path. The check is per spawning function
// (intraprocedural): handing the WaitGroup to a caller to Wait on is not
// followed and needs an ignore directive.
//
// Scope: internal/ non-test code. cmd/ may run fire-and-forget helpers
// (debug servers); tests join through the testing package's own machinery.
var LeakJoin = &analysis.Analyzer{
	Name: "leakjoin",
	Doc: "every go statement in internal/ must reach a join (WaitGroup.Wait or " +
		"channel receive) on all paths from spawn to return",
	Run: runLeakJoin,
}

var leakJoinScope = []string{
	modulePath + "/internal",
}

func runLeakJoin(pass *analysis.Pass) {
	if !underAny(pass.Path, leakJoinScope) {
		return
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncLeaks(pass, fd.Body)
			// Function literals spawn too (outside go statements); each
			// literal body is its own graph.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkFuncLeaks(pass, lit.Body)
				}
				return true
			})
		}
	}
}

// checkFuncLeaks builds body's CFG and verifies every go statement in it
// reaches a join.
func checkFuncLeaks(pass *analysis.Pass, body *ast.BlockStmt) {
	var spawns []*ast.GoStmt
	cfg.Inspect(body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			spawns = append(spawns, g)
		}
		return true
	})
	if len(spawns) == 0 {
		return
	}
	g := cfg.New(body)
	for _, spawn := range spawns {
		checkSpawnJoin(pass, g, spawn)
	}
}

func checkSpawnJoin(pass *analysis.Pass, g *cfg.Graph, spawn *ast.GoStmt) {
	wgObjs, chObjs := joinObjects(pass, spawn)
	hit := func(n ast.Node, blk *cfg.Block) bool {
		return isJoinNode(pass, n, blk, wgObjs, chObjs)
	}
	// A join in a deferred statement runs on every path to exit.
	for _, def := range g.Defers {
		if hit(def.Call, nil) {
			return
		}
	}
	if !g.EveryPathFrom(spawn, hit) {
		pass.Reportf(spawn.Pos(),
			"goroutine has no join on some path to return (need WaitGroup.Wait or a channel receive); it may outlive the spawning function")
	}
}

// joinObjects inspects the spawned function literal (if any) for the objects
// its join must match: WaitGroups it calls Done on, channels it sends on or
// closes. Empty maps mean the spawn is a named call — any join counts.
func joinObjects(pass *analysis.Pass, spawn *ast.GoStmt) (wgObjs, chObjs map[types.Object]bool) {
	wgObjs = map[types.Object]bool{}
	chObjs = map[types.Object]bool{}
	lit, ok := ast.Unparen(spawn.Call.Fun).(*ast.FuncLit)
	if !ok {
		return wgObjs, chObjs
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if fn := methodOf(pass, sel); fn != nil && recvTypeName(fn) == "WaitGroup" &&
					fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
					if obj := rootObj(pass, sel.X); obj != nil {
						wgObjs[obj] = true
					}
				}
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "close" && len(n.Args) == 1 {
					if obj := rootObj(pass, n.Args[0]); obj != nil {
						chObjs[obj] = true
					}
				}
			}
		case *ast.SendStmt:
			if obj := rootObj(pass, n.Chan); obj != nil {
				chObjs[obj] = true
			}
		}
		return true
	})
	return wgObjs, chObjs
}

// isJoinNode reports whether m is a join: a matching WaitGroup.Wait call or
// a matching channel receive. blk (when non-nil) supplies range-loop
// context: a channel expression heading a range block is a receive.
func isJoinNode(pass *analysis.Pass, m ast.Node, blk *cfg.Block, wgObjs, chObjs map[types.Object]bool) bool {
	anyJoin := len(wgObjs) == 0 && len(chObjs) == 0
	switch m := m.(type) {
	case *ast.CallExpr:
		sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Wait" {
			return false
		}
		fn := methodOf(pass, sel)
		if fn == nil || recvTypeName(fn) != "WaitGroup" || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return false
		}
		if anyJoin {
			return true
		}
		obj := rootObj(pass, sel.X)
		return obj != nil && wgObjs[obj]
	case *ast.UnaryExpr:
		if m.Op != token.ARROW {
			return false
		}
		if anyJoin {
			return true
		}
		obj := rootObj(pass, m.X)
		return obj != nil && chObjs[obj]
	case ast.Expr:
		// A channel expression heading a range block is a per-element
		// receive of the whole stream.
		if blk == nil || blk.Kind != "range.head" {
			return false
		}
		t := pass.TypesInfo.TypeOf(m)
		if t == nil {
			return false
		}
		if _, ok := t.Underlying().(*types.Chan); !ok {
			return false
		}
		if anyJoin {
			return true
		}
		obj := rootObj(pass, m)
		return obj != nil && chObjs[obj]
	}
	return false
}

// rootObj resolves an expression to the object anchoring it: the variable
// for an identifier, the field for a selector chain (w.wg -> field wg).
func rootObj(pass *analysis.Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[e.Sel]
	case *ast.UnaryExpr:
		return rootObj(pass, e.X)
	case *ast.StarExpr:
		return rootObj(pass, e.X)
	}
	return nil
}
