package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

const statsPkgPath = "hscsim/internal/stats"

// StatsReg requires every *stats.Counter / *stats.Histogram struct
// field to be assigned somewhere in its defining package. The stats
// types are registered through Scope.Counter / Scope.Histogram in a
// component's constructor; a field that is declared but never wired up
// is a nil pointer that crashes the first time the component counts
// something — typically only under a protocol variant the smoke tests
// don't cover.
//
// Two companion rules close the remaining drift holes for counters
// that /metrics exports (jobs_evicted, cache_hits):
//
//   - a stats field must be assigned *from a registration call* of the
//     matching kind (Scope.Counter for *Counter fields, Scope.Histogram
//     for *Histogram fields) — copying a handle from another struct
//     silently aliases two metrics, so a /metrics gate can pass while
//     the counter counts something else;
//   - the same name literal registered twice on one scope within a
//     function is two fields sharing one counter — each increment shows
//     up in both, which is indistinguishable from a real double-count
//     in a dashboard.
var StatsReg = &Analyzer{
	Name: "statsreg",
	Doc:  "every stats.Counter/Histogram struct field must be registered",
	Run:  runStatsReg,
}

func runStatsReg(p *Pass) {
	// Every stats-typed field declared by a struct in this package.
	declared := make(map[*types.Var]bool)
	scope := p.Pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			// Only fields this package defines: a type alias re-exports
			// another package's struct, whose fields are wired up by that
			// package's own constructor.
			if f := st.Field(i); isStatsHandle(f.Type()) && f.Pkg() == p.Pkg.Types {
				declared[f] = true
			}
		}
	}

	reportDuplicateRegistrations(p)
	if len(declared) == 0 {
		return
	}

	// Every field set via composite literal key or selector assignment.
	// Rule B rides along: the expression a declared field is set from
	// must be a registration call of the matching kind.
	assigned := make(map[*types.Var]bool)
	checkSource := func(f *types.Var, rhs ast.Expr) {
		if rhs == nil {
			return
		}
		want := statsKind(f.Type())
		if got := registrationKind(p, rhs); got != want {
			p.Report(rhs.Pos(),
				"stats field %s must be assigned straight from Scope.%s — a handle copied from another field or registered with the wrong kind aliases a different metric",
				f.Name(), want)
		}
	}
	p.inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.KeyValueExpr:
			// Struct-literal keys resolve to the field object.
			if id, ok := n.Key.(*ast.Ident); ok {
				if f, ok := p.Pkg.Info.Uses[id].(*types.Var); ok && declared[f] {
					assigned[f] = true
					checkSource(f, n.Value)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				s := p.Pkg.Info.Selections[sel]
				if s == nil {
					continue
				}
				f, ok := s.Obj().(*types.Var)
				if !ok || !declared[f] {
					continue
				}
				assigned[f] = true
				if len(n.Rhs) == len(n.Lhs) {
					checkSource(f, n.Rhs[i])
				}
			}
		}
		return true
	})

	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if declared[f] && !assigned[f] {
				p.Report(f.Pos(),
					"stats field %s.%s is never assigned — register it via Scope.%s in the constructor",
					name, f.Name(), statsKind(f.Type()))
			}
		}
	}
}

// reportDuplicateRegistrations flags two registrations of the same
// name literal on the same scope variable within one function (rule C):
// the registry hands back one shared counter, so two fields alias.
func reportDuplicateRegistrations(p *Pass) {
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			type regKey struct {
				recv types.Object
				kind string
				name string
			}
			seen := make(map[regKey]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				kind := scopeMethodKind(p, sel)
				if kind == "" {
					return true
				}
				recv, ok := ast.Unparen(sel.X).(*ast.Ident)
				if !ok {
					return true
				}
				lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
				if !ok {
					return true
				}
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					return true
				}
				key := regKey{recv: p.Pkg.Info.Uses[recv], kind: kind, name: name}
				if key.recv == nil {
					return true
				}
				if seen[key] {
					p.Report(call.Pos(),
						"duplicate registration of %s %q on %s — the registry returns one shared handle, so the two fields alias the same metric",
						kind, name, recv.Name)
				}
				seen[key] = true
				return true
			})
		}
	}
}

// scopeMethodKind returns "Counter" or "Histogram" when sel is a
// registration method selected from a *stats.Scope value, else "".
func scopeMethodKind(p *Pass, sel *ast.SelectorExpr) string {
	if sel.Sel.Name != "Counter" && sel.Sel.Name != "Histogram" {
		return ""
	}
	tv, ok := p.Pkg.Info.Types[sel.X]
	if !ok {
		return ""
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Name() != "Scope" || obj.Pkg() == nil || obj.Pkg().Path() != statsPkgPath {
		return ""
	}
	return sel.Sel.Name
}

// registrationKind classifies rhs: "Counter"/"Histogram" when it is a
// direct Scope.Counter/Scope.Histogram call, else "".
func registrationKind(p *Pass, rhs ast.Expr) string {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	return scopeMethodKind(p, sel)
}

// isStatsHandle reports whether t is *stats.Counter or *stats.Histogram.
func isStatsHandle(t types.Type) bool { return statsKind(t) != "" }

func statsKind(t types.Type) string {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return ""
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != statsPkgPath {
		return ""
	}
	switch obj.Name() {
	case "Counter", "Histogram":
		return obj.Name()
	}
	return ""
}
