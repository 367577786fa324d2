package cfg

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// parseFunc type-checks src (a complete file) and returns the named
// function's declaration plus the type info.
func parseFunc(t *testing.T, src, name string) (*ast.FuncDecl, *types.Info, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd, info, fset
		}
	}
	t.Fatalf("no function %q in src", name)
	return nil, nil, nil
}

// shape renders the graph as "kind->kind" edges for compact assertions.
func shape(g *Graph) map[string]bool {
	edges := map[string]bool{}
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			edges[fmt.Sprintf("%s->%s", b.Kind, s.Kind)] = true
		}
	}
	return edges
}

func TestNewStraightLine(t *testing.T) {
	fd, _, _ := parseFunc(t, `package p
func f() int {
	x := 1
	x++
	return x
}`, "f")
	g := New(fd.Body)
	if len(g.Entry.Nodes) != 3 {
		t.Errorf("entry holds %d nodes, want 3", len(g.Entry.Nodes))
	}
	if !shape(g)["entry->exit"] {
		t.Errorf("no entry->exit edge: %v", shape(g))
	}
}

func TestNewIfElse(t *testing.T) {
	fd, _, _ := parseFunc(t, `package p
func f(b bool) int {
	if b {
		return 1
	}
	return 0
}`, "f")
	g := New(fd.Body)
	s := shape(g)
	for _, want := range []string{"entry->if.then", "entry->if.join", "if.then->exit", "if.join->exit"} {
		if !s[want] {
			t.Errorf("missing edge %s in %v", want, s)
		}
	}
}

func TestNewForLoop(t *testing.T) {
	fd, _, _ := parseFunc(t, `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`, "f")
	g := New(fd.Body)
	s := shape(g)
	for _, want := range []string{"entry->for.head", "for.head->for.body", "for.head->for.after", "for.body->for.post", "for.post->for.head", "for.after->exit"} {
		if !s[want] {
			t.Errorf("missing edge %s in %v", want, s)
		}
	}
}

func TestNewBreakContinue(t *testing.T) {
	fd, _, _ := parseFunc(t, `package p
func f(n int) {
	for i := 0; i < n; i++ {
		if i == 3 {
			continue
		}
		if i == 7 {
			break
		}
	}
}`, "f")
	g := New(fd.Body)
	s := shape(g)
	// continue jumps to the post block, break to the after block.
	if !s["if.then->for.post"] {
		t.Errorf("continue edge missing: %v", s)
	}
	if !s["if.then->for.after"] {
		t.Errorf("break edge missing: %v", s)
	}
}

func TestNewLabeledBreak(t *testing.T) {
	fd, _, _ := parseFunc(t, `package p
func f(n int) {
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == 2 {
				break outer
			}
		}
	}
}`, "f")
	g := New(fd.Body)
	if !shape(g)["if.then->for.after"] {
		t.Errorf("labeled break edge missing: %v", shape(g))
	}
}

func TestNewGoto(t *testing.T) {
	fd, _, _ := parseFunc(t, `package p
func f(n int) int {
	i := 0
loop:
	if i < n {
		i++
		goto loop
	}
	return i
}`, "f")
	g := New(fd.Body)
	if !shape(g)["if.then->label.loop"] {
		t.Errorf("goto edge missing: %v", shape(g))
	}
}

func TestNewSwitchFallthrough(t *testing.T) {
	fd, _, _ := parseFunc(t, `package p
func f(n int) int {
	switch n {
	case 1:
		fallthrough
	case 2:
		return 2
	default:
		return 3
	}
}`, "f")
	g := New(fd.Body)
	s := shape(g)
	if !s["switch.case->switch.case"] {
		t.Errorf("fallthrough edge missing: %v", s)
	}
	if s["entry->switch.after"] {
		t.Errorf("switch with default should not skip to after: %v", s)
	}
}

func TestNewSelectAndDefer(t *testing.T) {
	fd, _, _ := parseFunc(t, `package p
func f(ch chan int) int {
	defer close(ch)
	select {
	case v := <-ch:
		return v
	default:
		return 0
	}
}`, "f")
	g := New(fd.Body)
	if len(g.Defers) != 1 {
		t.Fatalf("Defers = %d, want 1", len(g.Defers))
	}
	s := shape(g)
	if !s["entry->select.comm"] || !s["entry->select.default"] {
		t.Errorf("select clause edges missing: %v", s)
	}
}

// block returns the first block whose kind matches.
func block(t *testing.T, g *Graph, kind string) *Block {
	t.Helper()
	for _, b := range g.Blocks {
		if b.Kind == kind {
			return b
		}
	}
	t.Fatalf("no %s block", kind)
	return nil
}

// TestReaches checks two facts of New on one shape, through EveryPathHits:
// entry reaches the loop head, and `for {}` has no path to exit. With Exit
// as its only barrier, EveryPathHits visits every block reachable from its
// start; with no barrier it reports whether its start cannot reach Exit.
func TestReaches(t *testing.T) {
	fd, _, _ := parseFunc(t, `package p
func f(b bool) {
	if b {
		return
	}
	for {
	}
}`, "f")
	g := New(fd.Body)
	head := block(t, g, "for.head")
	reached := false
	g.EveryPathHits(g.Entry, func(b *Block) bool {
		reached = reached || b == head
		return b == g.Exit
	})
	if !reached {
		t.Errorf("entry should reach for.head")
	}
	if !g.EveryPathHits(head, func(*Block) bool { return false }) {
		t.Errorf("infinite loop must not reach exit")
	}
}

func TestEveryPathHits(t *testing.T) {
	src := `package p
import "sync"
func work(wg *sync.WaitGroup) { wg.Done() }
func f(b bool, n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go work(&wg)
	}
	if b {
		return
	}
	wg.Wait()
}`
	fd, info, _ := parseFunc(t, src, "f")
	g := New(fd.Body)
	isWait := func(b *Block) bool {
		for _, n := range b.Nodes {
			found := false
			Inspect(n, func(m ast.Node) bool {
				if sel, ok := m.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
					found = true
				}
				return true
			})
			if found {
				return true
			}
		}
		return false
	}
	_ = info
	// From the loop body (where the go statement lives), the `if b { return }`
	// path reaches exit without passing Wait.
	body := block(t, g, "for.body")
	if g.EveryPathHits(body, isWait) {
		t.Errorf("early return should escape the Wait barrier")
	}
	// Without the early return, every path from the loop body reaches the
	// Wait in the loop's after-block.
	fd2, _, _ := parseFunc(t, `package p
import "sync"
func work(wg *sync.WaitGroup) { wg.Done() }
func f(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go work(&wg)
	}
	wg.Wait()
}`, "f")
	g2 := New(fd2.Body)
	if !g2.EveryPathHits(block(t, g2, "for.body"), isWait) {
		t.Errorf("loop-then-Wait shape must hit Wait on every path")
	}
}

func TestInspectSkipsFuncLits(t *testing.T) {
	fd, _, _ := parseFunc(t, `package p
func f() {
	g := func() { panic("inner") }
	g()
}`, "f")
	sawInner := false
	Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && strings.Contains(lit.Value, "inner") {
			sawInner = true
		}
		return true
	})
	if sawInner {
		t.Errorf("Inspect descended into a nested function literal")
	}
}

func TestSummarizeFacts(t *testing.T) {
	src := `package p
import (
	"context"
	"sync"
)
type S struct {
	mu   sync.Mutex
	memo map[string]int
	n    int
}
var global int
func (s *S) writesRecv(k string) {
	s.memo[k] = 1
	s.n++
}
func writesGlobal() { global = 2 }
func pure(a int) int { return a + 1 }
func caller(s *S) { s.writesRecv("x"); _ = pure(1) }
func chans(ch chan int) {
	ch <- 1
	<-ch
	close(ch)
}
func spawner() { go writesGlobal() }
func ctxcheck(ctx context.Context) bool { return ctx.Err() != nil }
func viaHelper(ctx context.Context) bool { return ctxcheck(ctx) }
func noCheck() {}
`
	fd, info, _ := parseFunc(t, src, "caller")
	_ = fd
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	sums := Summarize([]*ast.File{f}, info)
	lookup := func(name string) *types.Func {
		t.Helper()
		obj := pkg.Scope().Lookup(name)
		if obj == nil {
			// method
			s := pkg.Scope().Lookup("S").Type().(*types.Named)
			for i := 0; i < s.NumMethods(); i++ {
				if s.Method(i).Name() == name {
					return s.Method(i)
				}
			}
			t.Fatalf("no func %s", name)
		}
		return obj.(*types.Func)
	}

	wr := sums.Of(lookup("writesRecv"))
	if len(wr.Writes) != 2 {
		t.Fatalf("writesRecv records %d writes, want 2", len(wr.Writes))
	}
	if wr.Writes[0].Root != RootReceiver || !wr.Writes[0].Map {
		t.Errorf("map write = %+v, want receiver-rooted map write", wr.Writes[0])
	}
	if wr.Writes[1].Root != RootReceiver || wr.Writes[1].Map {
		t.Errorf("field incr = %+v, want receiver-rooted non-map", wr.Writes[1])
	}

	if g := sums.Of(lookup("writesGlobal")); len(g.Writes) != 1 || g.Writes[0].Root != RootGlobal {
		t.Errorf("writesGlobal = %+v, want one global write", g.Writes)
	}
	if p := sums.Of(lookup("pure")); len(p.Writes) != 0 || len(p.Calls) != 0 {
		t.Errorf("pure = %+v, want empty", p)
	}
	if c := sums.Of(lookup("chans")); len(c.ChanOps) != 3 {
		t.Errorf("chans records %d chan ops, want 3", len(c.ChanOps))
	}
	if sp := sums.Of(lookup("spawner")); len(sp.Spawns) != 1 {
		t.Errorf("spawner records %d spawns, want 1", len(sp.Spawns))
	}

	// Call edges and reachability.
	reach := sums.Reachable([]*types.Func{lookup("caller")})
	names := map[string]bool{}
	for _, fn := range reach {
		names[fn.Name()] = true
	}
	for _, want := range []string{"caller", "writesRecv", "pure"} {
		if !names[want] {
			t.Errorf("reachable set %v missing %s", names, want)
		}
	}
	if names["chans"] {
		t.Errorf("chans must not be reachable from caller")
	}

	// Context checks, direct and transitive.
	if !sums.Of(lookup("ctxcheck")).ChecksCtx {
		t.Errorf("ctxcheck should have ChecksCtx")
	}
	if !sums.ChecksCtxTransitive(lookup("viaHelper")) {
		t.Errorf("viaHelper should check ctx transitively")
	}
	if sums.ChecksCtxTransitive(lookup("noCheck")) {
		t.Errorf("noCheck should not check ctx")
	}
}

func TestSummarizeClosureCapture(t *testing.T) {
	src := `package p
type J struct{ v float64 }
type E struct{ memo map[string]float64 }
func (e *E) run(jobs []J) {
	f := func(i int) {
		jobs[i].v = 1          // captured slice slot: element write
		e.memo["k"] = 1        // captured receiver map: shared write
	}
	f(0)
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	var lit *ast.FuncLit
	ast.Inspect(f, func(n ast.Node) bool {
		if l, ok := n.(*ast.FuncLit); ok {
			lit = l
		}
		return true
	})
	if lit == nil {
		t.Fatal("no closure")
	}
	sig := info.TypeOf(lit).(*types.Signature)
	sum := SummarizeBody(info, sig, lit.Body)
	if len(sum.Writes) != 2 {
		t.Fatalf("closure records %d writes, want 2: %+v", len(sum.Writes), sum.Writes)
	}
	if sum.Writes[0].Root != RootCaptured || sum.Writes[0].Map || sum.Writes[0].Direct {
		t.Errorf("slot write = %+v, want captured indirect non-map", sum.Writes[0])
	}
	if sum.Writes[1].Root != RootCaptured || !sum.Writes[1].Map {
		t.Errorf("memo write = %+v, want captured map", sum.Writes[1])
	}
}
