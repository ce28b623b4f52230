// Package lint is a self-contained static-analysis framework for the
// simulator's project-specific correctness rules, in the spirit of
// golang.org/x/tools/go/analysis but with no dependency outside the
// standard library (the repo vendors nothing). Packages are loaded via
// `go list -export` and type-checked against the compiler's export
// data, so analyzers see fully resolved types.
//
// The analyzers (run by cmd/hsclint):
//
//   - msgswitch: a switch on msg.Type must either carry a default
//     clause or enumerate every message type. Protocol dispatch that
//     silently ignores an unlisted message is how lost-ack deadlocks
//     are born.
//   - statsreg: every *stats.Counter / *stats.Histogram struct field
//     must be assigned somewhere in its package (i.e. registered via a
//     Scope); an unassigned field is a latent nil-dereference that only
//     fires when the counter is first bumped.
//   - determinism: simulation-reachable packages must be a pure
//     function of (workload, config, seed) — no raw map iteration (Go
//     randomizes its order; ranges proven order-insensitive are
//     annotated `//hsclint:deterministic`), no wall-clock reads and no
//     draws from the process-global math/rand source. The model
//     checker's replay and the conformance diffs depend on it.
//   - stallwake: queue fields that park protocol work (the directory's
//     pend map, MSHR waiter lists) must be annotated
//     `//hsclint:stallqueue`, and every annotated queue needs both a
//     park site and a wake site in its package — a queue that is
//     filled but never drained is a hung transaction waiting to
//     happen.
//   - lockcheck: lock discipline for the concurrent job engine —
//     a flow-sensitive held-lock dataflow over a per-function CFG catches
//     blocking calls under //lockcheck:fast locks (the PR 9 HTTP-under-
//     engine-mutex incident, statically), missing unlocks on early
//     returns, double-locks, inversions of the declared
//     //lockcheck:order, and untracked goroutines (see lockcheck.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Analyzer is one checkable rule.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one analyzer's run over one package. All holds every
// package in the run, so analyzers that honor cross-package
// annotations (lockcheck) can index declarations outside the package
// under analysis.
type Pass struct {
	Pkg      *Package
	All      []*Package
	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns every registered analyzer.
func All() []*Analyzer {
	return []*Analyzer{MsgSwitch, StatsReg, Determinism, StallWake, LockCheck}
}

// Check runs the analyzers over the packages and returns findings
// sorted by file position.
func Check(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{Pkg: pkg, All: pkgs, analyzer: a, diags: &diags})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}
