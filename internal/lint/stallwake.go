package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// StallWake is the source-level companion of the table-level stall
// lint (internal/protocheck): every queue that parks protocol work
// must have a wake path in the same package.
//
// The controllers stall work by appending the blocked message (or a
// waiter record) to a queue field — the directory's pend queues, the
// MSHR waiter lists — and wake it from a completion handler that
// drains the queue. Losing the drain site is how a stalled request
// becomes a hung transaction. The rule:
//
//   - A struct field whose name smells like a stall queue (pend*,
//     *waiter*, *stall*, defer*) and whose type can hold parked work
//     (map, slice, channel) must carry an `//hsclint:stallqueue`
//     annotation, so new queues cannot dodge the lint.
//   - Every annotated queue must have, in its package, at least one
//     park site (append to the field, insert into it, increment an
//     entry, send on it, call its Push or Put method) and at least one
//     wake site (delete from it, clear or reslice it, range over it to
//     replay, decrement an entry, receive from it, call its Pop, Take
//     or Delete method, or hand it to a drain helper). The methods are
//     those of a type that wraps its storage: recycle.Queues parks
//     with Push and wakes with Pop or Take, recycle.Table parks with
//     Put and wakes with Delete.
var StallWake = &Analyzer{
	Name: "stallwake",
	Doc:  "stall queues must be annotated and every annotated queue needs both a park and a wake site",
	Run:  runStallWake,
}

const stallQueueMarker = "hsclint:stallqueue"

var stallNameRE = regexp.MustCompile(`(?i)(^pend|pending|waiter|stall|^defer|deferred|parked)`)

// queueField is one annotated (or suspicious) queue with its use sites.
type queueField struct {
	name      string
	pos       token.Pos
	annotated bool
	parks     int
	wakes     int
}

func runStallWake(p *Pass) {
	queues := make(map[*types.Var]*queueField)

	// Pass 1: collect struct fields — annotated ones join the queue
	// set; queue-shaped names without the annotation are reported.
	p.inspect(func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, f := range st.Fields.List {
			annotated := commentsHaveMarker(stallQueueMarker, f.Doc, f.Comment)
			for _, name := range f.Names {
				obj, ok := p.Pkg.Info.Defs[name].(*types.Var)
				if !ok {
					continue
				}
				if annotated {
					queues[obj] = &queueField{name: name.Name, pos: name.Pos(), annotated: true}
					continue
				}
				if stallNameRE.MatchString(name.Name) && queueShaped(obj.Type()) {
					p.Report(name.Pos(),
						"field %s looks like a stall/wait queue; annotate it //hsclint:stallqueue so its wake path is linted (or rename it)",
						name.Name)
				}
			}
		}
		return true
	})
	if len(queues) == 0 {
		return
	}

	// Pass 2: classify every use of a tracked field as park or wake.
	p.inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			classifyAssign(p, queues, n)
		case *ast.IncDecStmt:
			if q := fieldOf(p, queues, baseExpr(n.X)); q != nil {
				if n.Tok == token.INC {
					q.parks++
				} else {
					q.wakes++
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if q := fieldOf(p, queues, baseExpr(sel.X)); q != nil {
					switch sel.Sel.Name {
					case "Push", "Put":
						q.parks++
					case "Pop", "Take", "Delete":
						q.wakes++
					}
				}
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				switch id.Name {
				case "delete":
					if len(n.Args) == 2 {
						if q := fieldOf(p, queues, n.Args[0]); q != nil {
							q.wakes++
						}
					}
					return true
				case "append", "make", "len", "cap", "copy", "new":
					// Builtins: append is classified at its
					// assignment; the rest neither park nor wake.
					return true
				}
			}
			// Handing the whole queue to a helper is how the DMA
			// engine drains its waiter maps — count it as a wake.
			for _, a := range n.Args {
				if q := fieldOf(p, queues, baseExpr(a)); q != nil {
					q.wakes++
				}
			}
		case *ast.RangeStmt:
			if q := fieldOf(p, queues, baseExpr(n.X)); q != nil {
				q.wakes++
			}
		case *ast.SendStmt:
			if q := fieldOf(p, queues, n.Chan); q != nil {
				q.parks++
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if q := fieldOf(p, queues, n.X); q != nil {
					q.wakes++
				}
			}
		}
		return true
	})

	var objs []*types.Var
	for obj := range queues { //hsclint:deterministic — sorted below
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return queues[objs[i]].pos < queues[objs[j]].pos })
	for _, obj := range objs {
		q := queues[obj]
		switch {
		case q.parks == 0:
			p.Report(q.pos, "annotated stall queue %s never parks any work in this package — stale annotation or the park site moved", q.name)
		case q.wakes == 0:
			p.Report(q.pos, "stall queue %s parks work but has no wake site in this package (no delete/clear/reslice/range/receive/Pop/Take/Delete) — parked work can never resume", q.name)
		}
	}
}

// classifyAssign sorts an assignment touching a tracked field into
// park (grow) or wake (shrink/replay) and bumps the counters.
func classifyAssign(p *Pass, queues map[*types.Var]*queueField, n *ast.AssignStmt) {
	for i, lhs := range n.Lhs {
		q := fieldOf(p, queues, baseExpr(lhs))
		if q == nil {
			continue
		}
		var rhs ast.Expr
		if len(n.Rhs) == len(n.Lhs) {
			rhs = n.Rhs[i]
		} else if len(n.Rhs) == 1 {
			rhs = n.Rhs[0]
		}
		switch {
		case isMakeCall(rhs) || isEmptyCompositeLit(rhs):
			// Initialization: neither parks nor wakes.
		case isAppendOf(p, queues, q, rhs):
			q.parks++
		case isIndexExpr(lhs):
			// Inserting or overwriting one entry grows the queue.
			q.parks++
		default:
			// nil, a sub-slice, an element-dropping append — a drain.
			q.wakes++
		}
	}
}

// fieldOf resolves e to a tracked queue field, unwrapping parens.
func fieldOf(p *Pass, queues map[*types.Var]*queueField, e ast.Expr) *queueField {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, ok := p.Pkg.Info.Selections[e]; ok {
			if v, ok := sel.Obj().(*types.Var); ok {
				return queues[v]
			}
		}
	case *ast.Ident:
		if v, ok := p.Pkg.Info.Uses[e].(*types.Var); ok {
			return queues[v]
		}
	}
	return nil
}

// baseExpr strips indexing: q.f[k] → q.f.
func baseExpr(e ast.Expr) ast.Expr {
	if ix, ok := ast.Unparen(e).(*ast.IndexExpr); ok {
		return ix.X
	}
	return e
}

func isIndexExpr(e ast.Expr) bool {
	_, ok := ast.Unparen(e).(*ast.IndexExpr)
	return ok
}

// isAppendOf reports whether rhs is append(f, ...) or append(f[k], ...)
// for the same tracked field — a grow. An append over a *slice
// expression* of the field (append(f[:i], f[i+1:]...)) removes an
// element and is left to the default wake classification.
func isAppendOf(p *Pass, queues map[*types.Var]*queueField, q *queueField, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	return fieldOf(p, queues, baseExpr(call.Args[0])) == q
}

func isMakeCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "make"
}

func isEmptyCompositeLit(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.CompositeLit)
	return ok && len(lit.Elts) == 0
}

// queueShaped reports whether t can hold parked work.
func queueShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Map, *types.Slice, *types.Chan:
		return true
	}
	return false
}
