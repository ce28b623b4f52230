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
//   - determinism: simulation-reachable packages must be a pure
//     function of (workload, config, seed) — no raw map iteration (Go
//     randomizes its order), no go statements (the Go scheduler
//     interleaves goroutines nondeterministically), no wall-clock reads
//     and no draws from the process-global math/rand source. A map
//     range proven order-insensitive, or a goroutine whose effect
//     cannot depend on scheduling, is annotated
//     `//hsclint:deterministic`. The model checker's replay and the
//     conformance diffs depend on it.
//   - stallwake: in the coherence controllers (ControllerPackages),
//     every recycle.Queues or recycle.Table field (the directory's
//     pend queues, MSHR waiters, completion FIFOs, in-flight tables)
//     needs a park call (Push, Put) and a wake call (Pop, Take,
//     Delete) on it in its package, and no field may be a map. A
//     queue that is filled but never drained is a hung transaction
//     waiting to happen.
//
// No analyzer checks the job engine's locks: internal/engine has two
// mutexes that never nest, and its tests pin the rest at run time.
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

// Pass carries one analyzer's run over one package.
type Pass struct {
	Pkg      *Package
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
	return []*Analyzer{MsgSwitch, Determinism, StallWake}
}

// Check runs the analyzers over the packages and returns findings
// sorted by file position.
func Check(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{Pkg: pkg, analyzer: a, diags: &diags})
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
