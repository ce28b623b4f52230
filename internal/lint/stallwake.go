package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// ControllerPackages are the coherence controllers: the packages whose
// Record call sites define the protocol transition tables
// (internal/proto) and whose parked work StallWake checks.
var ControllerPackages = []string{
	"hscsim/internal/core",
	"hscsim/internal/corepair",
	"hscsim/internal/dma",
	"hscsim/internal/gpu",
	"hscsim/internal/gpucache",
}

const recyclePkg = "hscsim/internal/recycle"

// StallWake is the source-level companion of the table-level stall
// lint (internal/protocheck): parked protocol work must have a wake
// path in its controller's package.
//
// A controller parks per-line work in a recycle.Queues (the
// directory's pend queues, MSHR waiters, completion FIFOs) and keeps
// per-line in-flight state in a recycle.Table (transactions, victim
// buffers), and a completion handler wakes or retires it. Losing that
// call is how a stalled request becomes a hung transaction. The rule,
// in the controller packages:
//
//   - Every struct field of type recycle.Queues or recycle.Table needs
//     a park call (Push or Put) and a wake call (Pop, Take or Delete)
//     on that field in its package. Reading a queue with At or Len
//     wakes nothing.
//   - A map-typed struct field is reported: per-line state belongs in
//     the recycle types, whose park and wake calls the rule can see.
//
// Lists that are not per-line (the TCC's flush FIFO, a workgroup's
// barrier waiters) stay plain slices, outside the rule.
var StallWake = &Analyzer{
	Name: "stallwake",
	Doc:  "every recycle.Queues or recycle.Table field of a controller needs a park and a wake call; controllers keep no map fields",
	Run:  runStallWake,
}

// parkedField is one recycle.Queues or recycle.Table field with its
// park and wake call counts.
type parkedField struct {
	name         string
	pos          token.Pos
	parks, wakes int
}

func runStallWake(p *Pass) {
	if !slices.Contains(ControllerPackages, p.Pkg.PkgPath) {
		return
	}
	fields := make(map[*types.Var]*parkedField)
	var order []*parkedField
	p.inspect(func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, f := range st.Fields.List {
			for _, name := range f.Names {
				v, ok := p.Pkg.Info.Defs[name].(*types.Var)
				if !ok {
					continue
				}
				if _, isMap := v.Type().Underlying().(*types.Map); isMap {
					p.Report(name.Pos(),
						"controller field %s is a map; keep per-line state in a recycle.Queues or recycle.Table so its wake path is linted",
						name.Name)
				} else if isRecycleStore(v.Type()) {
					pf := &parkedField{name: name.Name, pos: name.Pos()}
					fields[v] = pf
					order = append(order, pf)
				}
			}
		}
		return true
	})
	if len(order) == 0 {
		return
	}

	// Count the method calls made on each field: x.f.Push(…) and so on.
	p.inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		method, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv, ok := ast.Unparen(method.X).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		sel, ok := p.Pkg.Info.Selections[recv]
		if !ok {
			return true
		}
		v, _ := sel.Obj().(*types.Var)
		if pf := fields[v]; pf != nil {
			switch method.Sel.Name {
			case "Push", "Put":
				pf.parks++
			case "Pop", "Take", "Delete":
				pf.wakes++
			}
		}
		return true
	})

	for _, pf := range order {
		switch {
		case pf.parks == 0:
			p.Report(pf.pos, "%s never parks any work in this package (no Push or Put): dead storage, or the park site moved", pf.name)
		case pf.wakes == 0:
			p.Report(pf.pos, "%s parks work but has no wake site in this package (no Pop, Take or Delete): parked work can never resume", pf.name)
		}
	}
}

// isRecycleStore reports whether t is an instance of recycle.Queues or
// recycle.Table.
func isRecycleStore(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == recyclePkg &&
		(obj.Name() == "Queues" || obj.Name() == "Table")
}
