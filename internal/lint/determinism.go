package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// deterministicMarker suppresses a map-range or go-statement finding
// when it appears on the statement's line or the line above it — the
// author asserts the loop body is insensitive to iteration order
// (commutative accumulation, or keys sorted before use), or that what
// the goroutine computes cannot depend on how it is scheduled (each
// worker writes only its own slot, read after a join).
const deterministicMarker = "hsclint:deterministic"

// detPackages are the packages whose behavior must be a pure function
// of (workload, config, seed): the simulator packages plus everything
// the harnesses replay — the model checker re-executes action prefixes
// from scratch and the conformance matrix diffs final images across
// runs, so any wall-clock, ambient-randomness or map-order dependence
// in these packages breaks both. Workload generators are included:
// their outputs are the reproducers the minimizer shrinks. Every
// project package internal/system imports, directly or not, is in the
// set.
var detPackages = map[string]bool{
	"hscsim/internal/cachearray": true,
	"hscsim/internal/chai":       true,
	"hscsim/internal/conform":    true,
	"hscsim/internal/core":       true,
	"hscsim/internal/corepair":   true,
	"hscsim/internal/cpu":        true,
	"hscsim/internal/dma":        true,
	"hscsim/internal/fsm":        true,
	"hscsim/internal/gpu":        true,
	"hscsim/internal/gpucache":   true,
	"hscsim/internal/heterosync": true,
	"hscsim/internal/memctrl":    true,
	"hscsim/internal/memdata":    true,
	"hscsim/internal/msg":        true,
	"hscsim/internal/noc":        true,
	"hscsim/internal/prog":       true,
	"hscsim/internal/recycle":    true,
	"hscsim/internal/sim":        true,
	"hscsim/internal/stats":      true,
	"hscsim/internal/system":     true,
	"hscsim/internal/trace":      true,
	"hscsim/internal/verify":     true,
}

// bannedTimeFuncs are the wall-clock entry points of package time. The
// pure constructors and arithmetic (Duration, Unix, Date…) stay legal:
// only functions that read the real clock (or schedule on it) make a
// run irreproducible.
var bannedTimeFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"Sleep":     true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"AfterFunc": true,
}

// allowedRandFuncs are the package-level math/rand identifiers that do
// NOT touch the ambient global source: constructors and distributions.
// Everything else at package level (rand.Intn, rand.Seed, rand.Perm…)
// draws from the shared process-global generator, whose sequence
// depends on what every other component consumed before — methods on
// an explicitly seeded *rand.Rand are the deterministic replacement.
var allowedRandFuncs = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// Determinism bans ambient nondeterminism — raw map iteration, go
// statements, wall-clock reads and the process-global math/rand
// source — in simulation-reachable packages.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "no map iteration, go statements, wall-clock time or global math/rand in simulation-reachable packages",
	Run:  runDeterminism,
}

func runDeterminism(p *Pass) {
	if !detPackages[p.Pkg.PkgPath] {
		return
	}
	for _, file := range p.Pkg.Files {
		marked := markerLines(p, file, deterministicMarker)
		unmarked := func(n ast.Node) bool {
			line := p.Pkg.Fset.Position(n.Pos()).Line
			return !marked[line] && !marked[line-1]
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if isMap(p, n.X) && unmarked(n) {
					p.Report(n.Pos(),
						"map iteration order is randomized and this package is simulation-reachable; iterate sorted keys, or annotate //%s if order provably cannot matter",
						deterministicMarker)
				}
			case *ast.GoStmt:
				if unmarked(n) {
					p.Report(n.Pos(),
						"go statement in a simulation-reachable package: the Go scheduler interleaves goroutines nondeterministically; run the work on the event loop, or annotate //%s if what the goroutine computes cannot depend on scheduling",
						deterministicMarker)
				}
			}
			return true
		})
	}
	p.inspect(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgName, fn := pkgFuncOf(p, sel)
		switch pkgName {
		case "time":
			if bannedTimeFuncs[fn] {
				p.Report(sel.Pos(),
					"time.%s reads the wall clock; simulation-reachable packages must be a pure function of (workload, config, seed) — use sim.Engine ticks",
					fn)
			}
		case "math/rand":
			// Type references (*rand.Rand in a signature) are the
			// deterministic idiom itself, not a draw from the global
			// source.
			if _, isType := p.Pkg.Info.Uses[sel.Sel].(*types.TypeName); isType {
				return true
			}
			if !allowedRandFuncs[fn] {
				p.Report(sel.Pos(),
					"rand.%s draws from the process-global source; use a seeded *rand.Rand (rand.New(rand.NewSource(seed)))",
					fn)
			}
		}
		return true
	})
}

// pkgFuncOf resolves a selector to (import path, name) when it is a
// package-level reference (time.Now, rand.Intn); methods on values —
// including *rand.Rand methods — resolve to ("", name) and pass.
func pkgFuncOf(p *Pass, sel *ast.SelectorExpr) (string, string) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", sel.Sel.Name
	}
	pn, ok := p.Pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", sel.Sel.Name
	}
	path := pn.Imported().Path()
	// The loader resolves vendored stdlib paths verbatim; normalize any
	// "vendor/" prefix so the match is on the canonical import path.
	path = strings.TrimPrefix(path, "vendor/")
	return path, sel.Sel.Name
}

// isMap reports whether e has map type.
func isMap(p *Pass, e ast.Expr) bool {
	tv, ok := p.Pkg.Info.Types[e]
	if !ok {
		return false
	}
	_, m := tv.Type.Underlying().(*types.Map)
	return m
}
