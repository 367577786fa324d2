// Package cfg builds per-function control-flow graphs from go/ast, giving
// µBE's analyzers (package rules) a dataflow vocabulary the purely syntactic
// walkers could not express: basic blocks with branch, loop, and defer
// edges, the all-paths query EveryPathHits, and a per-package call-summary
// table (see summary.go) recording each declared function's side-effect
// facts and static call edges.
//
// Like the rest of internal/analysis, the package is stdlib-only. Graphs are
// intraprocedural and intentionally approximate where exactness would need
// whole-program analysis:
//
//   - panics and runtime.Goexit are not modeled as edges; a statement either
//     falls through, branches, or returns.
//   - function literals are separate functions: their bodies contribute no
//     blocks to the enclosing graph (call New on the literal's own body).
//   - calls through interfaces or function values yield no call edges in
//     the summary table; Summary.Dynamic records the sites so analyzers can
//     document the approximation instead of silently trusting it.
//
// Analyzers built on these graphs therefore prove properties of the control
// shapes the repo actually uses and state the rest as soundness limits (see
// DESIGN.md, "Static analysis & determinism policy").
package cfg

import (
	"go/ast"
	"go/token"
)

// A Block is one basic block: a maximal sequence of statements (and the
// control expressions that guard them) with a single entry and exit.
type Block struct {
	Index int
	// Kind labels the block's syntactic origin ("entry", "for.head",
	// "if.then", ...) for debugging and tests.
	Kind string
	// Nodes holds the block's statements and guard expressions in source
	// order. Loop and switch bodies are NOT nested inside these nodes —
	// they live in their own blocks — but expressions (including function
	// literals) are kept whole; use Inspect to walk a node without
	// descending into nested literals.
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// A Graph is the control-flow graph of one function body.
type Graph struct {
	Entry, Exit *Block
	Blocks      []*Block
	// Defers are the function's defer statements in source order. Deferred
	// calls run on every path to Exit, so "must happen before return"
	// queries should consult them alongside EveryPathHits.
	Defers []*ast.DeferStmt

	blockOf map[ast.Node]*Block
}

// New builds the control-flow graph of a function body.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{blockOf: map[ast.Node]*Block{}}
	g.Entry = g.newBlock("entry")
	g.Exit = g.newBlock("exit")
	b := &builder{g: g, cur: g.Entry, labels: map[string]*labelInfo{}}
	b.stmtList(body.List)
	edge(b.cur, g.Exit) // fall off the end = implicit return
	b.resolveGotos()
	return g
}

// BlockOf returns the block that directly holds n (a statement or guard
// expression appended during construction), or nil for nodes nested inside
// another node or belonging to a different function.
func (g *Graph) BlockOf(n ast.Node) *Block { return g.blockOf[n] }

// EveryPathHits reports whether every path from `from` (exclusive) to Exit
// passes through a block satisfying hit. Paths that never terminate (loops
// with no way out) vacuously satisfy the property. Deferred statements are
// not consulted — callers that accept a deferred witness check Graph.Defers
// themselves.
func (g *Graph) EveryPathHits(from *Block, hit func(*Block) bool) bool {
	seen := map[*Block]bool{from: true}
	stack := append([]*Block(nil), from.Succs...)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		if hit(b) {
			continue // barrier: paths through b are satisfied
		}
		if b == g.Exit {
			return false // reached exit without passing a hit block
		}
		stack = append(stack, b.Succs...)
	}
	return true
}

// Inspect walks n in the manner of ast.Inspect but does not descend into
// nested function literals: their bodies belong to a different function's
// graph. The node n itself may be a *ast.FuncLit — then its body IS walked
// (you asked about that function).
func Inspect(n ast.Node, f func(ast.Node) bool) {
	root := n
	ast.Inspect(n, func(m ast.Node) bool {
		if lit, ok := m.(*ast.FuncLit); ok && lit != root {
			return false
		}
		return f(m)
	})
}

// ---- construction ----

type builder struct {
	g   *Graph
	cur *Block
	// targets is the break/continue stack, innermost last.
	targets []targetFrame
	// fallthroughTo is the next case block of the innermost switch.
	fallthroughTo *Block
	labels        map[string]*labelInfo
}

type targetFrame struct {
	label string
	brk   *Block
	cont  *Block // nil for switch/select frames
}

type labelInfo struct {
	block *Block   // first block of the labeled statement
	gotos []*Block // blocks ending in a goto awaiting resolution
}

func (g *Graph) newBlock(kind string) *Block {
	b := &Block{Index: len(g.Blocks), Kind: kind}
	g.Blocks = append(g.Blocks, b)
	return b
}

func edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func (b *builder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
	b.g.blockOf[n] = b.cur
}

// startBlock begins a new block reached by falling through from cur.
func (b *builder) startBlock(kind string) *Block {
	nb := b.g.newBlock(kind)
	edge(b.cur, nb)
	b.cur = nb
	return nb
}

// jump ends cur with an edge to `to` and parks cur in a fresh, unreachable
// block for any statements that syntactically follow a terminator.
func (b *builder) jump(to *Block) {
	edge(b.cur, to)
	b.cur = b.g.newBlock("unreachable")
}

func (b *builder) push(label string, brk, cont *Block) {
	b.targets = append(b.targets, targetFrame{label: label, brk: brk, cont: cont})
}

func (b *builder) pop() { b.targets = b.targets[:len(b.targets)-1] }

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, "")
	case *ast.RangeStmt:
		b.rangeStmt(s, "")
	case *ast.SwitchStmt:
		b.switchStmt(s, "")
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, "")
	case *ast.SelectStmt:
		b.selectStmt(s, "")
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)
	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s)
	case *ast.EmptyStmt:
		// nothing
	default:
		// ExprStmt, AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt.
		b.add(s)
	}
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Cond)
	cond := b.cur
	join := b.g.newBlock("if.join")
	then := b.g.newBlock("if.then")
	edge(cond, then)
	b.cur = then
	b.stmt(s.Body)
	edge(b.cur, join)
	if s.Else != nil {
		els := b.g.newBlock("if.else")
		edge(cond, els)
		b.cur = els
		b.stmt(s.Else)
		edge(b.cur, join)
	} else {
		edge(cond, join)
	}
	b.cur = join
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.startBlock("for.head")
	if s.Cond != nil {
		b.add(s.Cond)
	}
	body := b.g.newBlock("for.body")
	after := b.g.newBlock("for.after")
	edge(head, body)
	if s.Cond != nil {
		edge(head, after)
	}
	cont := head
	var post *Block
	if s.Post != nil {
		post = b.g.newBlock("for.post")
		cont = post
	}
	b.push(label, after, cont)
	b.cur = body
	b.stmt(s.Body)
	if post != nil {
		edge(b.cur, post)
		b.cur = post
		b.stmt(s.Post)
	}
	edge(b.cur, head) // back edge
	b.pop()
	b.cur = after
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.startBlock("range.head")
	b.add(s.X)
	body := b.g.newBlock("range.body")
	after := b.g.newBlock("range.after")
	edge(head, body)
	edge(head, after)
	b.push(label, after, head)
	b.cur = body
	b.stmt(s.Body)
	edge(b.cur, head) // back edge
	b.pop()
	b.cur = after
}

func (b *builder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	b.caseClauses(s.Body, label, true)
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Assign)
	b.caseClauses(s.Body, label, false)
}

// caseClauses builds the clause blocks of a (type) switch. Every clause is
// an alternative successor of the dispatching block; without a default
// clause control may skip the switch entirely.
func (b *builder) caseClauses(body *ast.BlockStmt, label string, allowFallthrough bool) {
	cond := b.cur
	after := b.g.newBlock("switch.after")
	b.push(label, after, nil)
	clauses := make([]*ast.CaseClause, 0, len(body.List))
	for _, c := range body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		kind := "switch.case"
		if cc.List == nil {
			kind = "switch.default"
			hasDefault = true
		}
		blocks[i] = b.g.newBlock(kind)
		edge(cond, blocks[i])
	}
	if !hasDefault {
		edge(cond, after)
	}
	savedFT := b.fallthroughTo
	for i, cc := range clauses {
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		b.fallthroughTo = nil
		if allowFallthrough && i+1 < len(blocks) {
			b.fallthroughTo = blocks[i+1]
		}
		b.stmtList(cc.Body)
		edge(b.cur, after)
	}
	b.fallthroughTo = savedFT
	b.pop()
	b.cur = after
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	cond := b.cur
	after := b.g.newBlock("select.after")
	b.push(label, after, nil)
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		kind := "select.comm"
		if cc.Comm == nil {
			kind = "select.default"
		}
		blk := b.g.newBlock(kind)
		edge(cond, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmtList(cc.Body)
		edge(b.cur, after)
	}
	b.pop()
	// A select{} with no clauses blocks forever: after keeps no
	// predecessors and everything below is unreachable, which is exact.
	b.cur = after
}

func (b *builder) labeledStmt(s *ast.LabeledStmt) {
	name := s.Label.Name
	lb := b.startBlock("label." + name)
	b.labelInfo(name).block = lb
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		b.forStmt(inner, name)
	case *ast.RangeStmt:
		b.rangeStmt(inner, name)
	case *ast.SwitchStmt:
		b.switchStmt(inner, name)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(inner, name)
	case *ast.SelectStmt:
		b.selectStmt(inner, name)
	default:
		b.stmt(s.Stmt)
	}
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	b.add(s)
	switch s.Tok {
	case token.BREAK:
		if t := b.findTarget(s.Label, true); t != nil {
			b.jump(t)
		}
	case token.CONTINUE:
		if t := b.findTarget(s.Label, false); t != nil {
			b.jump(t)
		}
	case token.FALLTHROUGH:
		if b.fallthroughTo != nil {
			b.jump(b.fallthroughTo)
		}
	case token.GOTO:
		li := b.labelInfo(s.Label.Name)
		li.gotos = append(li.gotos, b.cur)
		b.cur = b.g.newBlock("unreachable")
	}
}

// findTarget resolves a break (isBreak) or continue target, innermost first.
func (b *builder) findTarget(label *ast.Ident, isBreak bool) *Block {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := b.targets[i]
		if label != nil && t.label != label.Name {
			continue
		}
		if isBreak {
			return t.brk
		}
		if t.cont != nil {
			return t.cont
		}
		if label != nil {
			return nil // continue to a non-loop label: invalid Go
		}
	}
	return nil
}

func (b *builder) labelInfo(name string) *labelInfo {
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{}
		b.labels[name] = li
	}
	return li
}

func (b *builder) resolveGotos() {
	for _, li := range b.labels {
		if li.block == nil {
			continue // goto to an undeclared label: invalid Go
		}
		for _, from := range li.gotos {
			edge(from, li.block)
		}
	}
}
