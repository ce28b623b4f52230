package lint

import (
	"go/ast"
	"go/token"
)

// This file is the control-flow-graph half of the lockcheck analyzer:
// a small, hand-rolled CFG over ast.Stmt with the same dependency
// posture as the rest of the package (stdlib only, no
// golang.org/x/tools/go/cfg). Blocks hold a flat list of ast.Node
// "atoms" — statements or sub-expressions in evaluation order — and
// the dataflow in lockcheck.go interprets each atom with a transfer
// function.
//
// The builder covers the statement forms the simulator actually uses:
// if/else, for (all three clauses), range, switch (incl. fallthrough),
// type switch, select, labeled break/continue, goto (conservatively:
// edge to exit), defer (collected for at-exit application), and
// panic-terminated paths (no successor, so leak checks don't fire on
// paths that die).

// cfgBlock is one basic block.
type cfgBlock struct {
	index int
	nodes []ast.Node
	succs []*cfgBlock
}

// funcCFG is the graph for one function body.
type funcCFG struct {
	blocks []*cfgBlock
	entry  *cfgBlock
	exit   *cfgBlock
	// atExit holds every deferred call in registration order; the
	// dataflow applies them (in reverse) to the exit state before the
	// leak-on-return check, so `defer ic.Release(m)` counts.
	atExit []*ast.CallExpr
}

type loopTargets struct {
	brk  *cfgBlock // break target
	cont *cfgBlock // continue target (nil for switch/select)
}

type cfgBuilder struct {
	g   *funcCFG
	cur *cfgBlock // nil after a terminating statement (return/panic/branch)
	// loops is the stack of enclosing breakable constructs; labels maps
	// label names to the construct they head.
	loops  []loopTargets
	labels map[string]loopTargets
	// pendingLabel is set while building the statement a label heads,
	// so the loop builders can register their targets under it.
	pendingLabel string
}

// buildCFG constructs the graph for a function body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	g := &funcCFG{}
	b := &cfgBuilder{g: g, labels: make(map[string]loopTargets)}
	g.entry = b.newBlock()
	g.exit = b.newBlock()
	b.cur = g.entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.link(b.cur, g.exit)
	}
	return g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) link(from, to *cfgBlock) {
	for _, s := range from.succs {
		if s == to {
			return
		}
	}
	from.succs = append(from.succs, to)
}

// add appends an atom to the current block (creating one if the
// previous statement terminated — unreachable code is still analyzed,
// just with no inbound facts).
func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.nodes = append(b.cur.nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.LabeledStmt:
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.ExprStmt:
		b.add(s)
		if isPanicOrExit(s.X) {
			b.cur = nil // path dies; no edge to exit
		}
	case *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.GoStmt:
		b.add(s)
	case *ast.DeferStmt:
		b.add(s) // argument evaluation happens here
		b.g.atExit = append(b.g.atExit, s.Call)
	case *ast.ReturnStmt:
		b.add(s)
		if b.cur != nil {
			b.link(b.cur, b.g.exit)
			b.cur = nil
		}
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s)
	case *ast.SelectStmt:
		b.selectStmt(s)
	default:
		b.add(s)
	}
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	if b.cur == nil {
		return
	}
	var t loopTargets
	found := false
	if s.Label != nil {
		t, found = b.labels[s.Label.Name]
	} else if len(b.loops) > 0 {
		// break/continue bind to the innermost construct that accepts
		// them; for continue that is the innermost *loop*.
		for i := len(b.loops) - 1; i >= 0; i-- {
			if s.Tok == token.CONTINUE && b.loops[i].cont == nil {
				continue
			}
			t, found = b.loops[i], true
			break
		}
	}
	switch {
	case s.Tok == token.FALLTHROUGH:
		// Handled by switchStmt (it links the clause to the next one);
		// here just stop the normal clause→after edge.
	case found && s.Tok == token.BREAK:
		b.link(b.cur, t.brk)
	case found && s.Tok == token.CONTINUE && t.cont != nil:
		b.link(b.cur, t.cont)
	default:
		// goto, or a label we failed to resolve: be conservative and
		// fall through to exit so owned values aren't reported leaked
		// on paths we can't follow.
		b.link(b.cur, b.g.exit)
	}
	b.cur = nil
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	b.add(s.Init)
	b.add(s.Cond)
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	after := b.newBlock()

	then := b.newBlock()
	b.link(head, then)
	b.cur = then
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.link(b.cur, after)
	}

	if s.Else != nil {
		els := b.newBlock()
		b.link(head, els)
		b.cur = els
		b.stmt(s.Else)
		if b.cur != nil {
			b.link(b.cur, after)
		}
	} else {
		b.link(head, after)
	}
	b.cur = after
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	b.add(s.Init)
	head := b.newBlock()
	if b.cur != nil {
		b.link(b.cur, head)
	}
	after := b.newBlock()

	// continue goes to the post statement when there is one.
	cont := head
	var post *cfgBlock
	if s.Post != nil {
		post = b.newBlock()
		post.nodes = append(post.nodes, s.Post)
		b.link(post, head)
		cont = post
	}

	b.cur = head
	b.add(s.Cond)
	head = b.cur // cond may have grown the block; keep the tail
	if s.Cond != nil {
		b.link(head, after) // loop can exit at the test
	}
	b.pushLoop(loopTargets{brk: after, cont: cont})

	body := b.newBlock()
	b.link(head, body)
	b.cur = body
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.link(b.cur, cont)
	}
	b.popLoop()
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	head := b.newBlock()
	if b.cur != nil {
		b.link(b.cur, head)
	}
	// The RangeStmt atom covers X's evaluation and the key/value
	// definitions; the transfer function handles both.
	head.nodes = append(head.nodes, s)
	after := b.newBlock()
	b.link(head, after) // empty range

	b.pushLoop(loopTargets{brk: after, cont: head})
	body := b.newBlock()
	b.link(head, body)
	b.cur = body
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.link(b.cur, head)
	}
	b.popLoop()
	b.cur = after
}

func (b *cfgBuilder) switchStmt(s *ast.SwitchStmt) {
	b.add(s.Init)
	b.add(s.Tag)
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	after := b.newBlock()
	b.pushLoop(loopTargets{brk: after})

	var clauses []*ast.CaseClause
	for _, c := range s.Body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	blocks := make([]*cfgBlock, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		blocks[i] = b.newBlock()
		b.link(head, blocks[i])
		for _, e := range c.List {
			blocks[i].nodes = append(blocks[i].nodes, e)
		}
		if c.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.link(head, after)
	}
	for i, c := range clauses {
		b.cur = blocks[i]
		b.stmtList(trimFallthrough(c.Body))
		if b.cur != nil {
			if fallsThrough(c.Body) && i+1 < len(blocks) {
				b.link(b.cur, blocks[i+1])
			} else {
				b.link(b.cur, after)
			}
			b.cur = nil
		}
	}
	b.popLoop()
	b.cur = after
}

func (b *cfgBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt) {
	b.add(s.Init)
	b.add(s.Assign)
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	after := b.newBlock()
	b.pushLoop(loopTargets{brk: after})

	hasDefault := false
	for _, raw := range s.Body.List {
		c := raw.(*ast.CaseClause)
		if c.List == nil {
			hasDefault = true
		}
		blk := b.newBlock()
		b.link(head, blk)
		b.cur = blk
		b.stmtList(c.Body)
		if b.cur != nil {
			b.link(b.cur, after)
		}
	}
	if !hasDefault {
		b.link(head, after)
	}
	b.popLoop()
	b.cur = after
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	after := b.newBlock()
	b.pushLoop(loopTargets{brk: after})
	for _, raw := range s.Body.List {
		c := raw.(*ast.CommClause)
		blk := b.newBlock()
		b.link(head, blk)
		if c.Comm != nil {
			blk.nodes = append(blk.nodes, c.Comm)
		}
		b.cur = blk
		b.stmtList(c.Body)
		if b.cur != nil {
			b.link(b.cur, after)
		}
	}
	b.popLoop()
	b.cur = after
}

func (b *cfgBuilder) pushLoop(t loopTargets) {
	b.loops = append(b.loops, t)
	if b.pendingLabel != "" {
		b.labels[b.pendingLabel] = t
		b.pendingLabel = ""
	}
}

func (b *cfgBuilder) popLoop() {
	b.loops = b.loops[:len(b.loops)-1]
}

// trimFallthrough drops a trailing fallthrough statement from a case
// body (the clause linkage is handled by switchStmt).
func trimFallthrough(body []ast.Stmt) []ast.Stmt {
	if fallsThrough(body) {
		return body[:len(body)-1]
	}
	return body
}

func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// isPanicOrExit reports whether the expression statement unconditionally
// terminates the path: panic(...) or os.Exit(...). Testing helpers
// (t.Fatal) don't appear in the packages lockcheck analyzes.
func isPanicOrExit(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name == "os" && fun.Sel.Name == "Exit"
		}
	}
	return false
}
