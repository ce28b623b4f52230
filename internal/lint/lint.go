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
//   - maploop: simulator hot-path packages must not range over maps —
//     Go randomizes map iteration order, which would break the
//     determinism the whole simulator (and its model checker) relies
//     on. Ranges proven order-insensitive are annotated
//     `//hsclint:deterministic`.
//   - statsreg: every *stats.Counter / *stats.Histogram struct field
//     must be assigned somewhere in its package (i.e. registered via a
//     Scope); an unassigned field is a latent nil-dereference that only
//     fires when the counter is first bumped.
//   - stallwake: queue fields that park protocol work (the directory's
//     pend map, MSHR waiter lists) must be annotated
//     `//hsclint:stallqueue`, and every annotated queue needs both a
//     park site and a wake site in its package — a queue that is
//     filled but never drained is a hung transaction waiting to
//     happen.
//   - msgown: pooled messages and events must follow the
//     release-on-consume ownership discipline on every path — a
//     flow-sensitive dataflow over a per-function CFG catches
//     use-after-release, double-release, leak-on-return and
//     send-after-hold statically, with //msgown: annotations declaring
//     cross-function ownership transfer (see msgown.go).
//   - lockcheck: lock discipline for the concurrent job engine —
//     a flow-sensitive held-lock dataflow over the same CFG catches
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
// annotations (msgown) can index declarations outside the package
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
	return []*Analyzer{MsgSwitch, MapLoop, StatsReg, Determinism, StallWake, MsgOwn, LockCheck}
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
