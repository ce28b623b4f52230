package lint

import (
	"go/ast"
	"strings"
)

// This file is the shared analyzer driver: the package-walking and
// marker-scanning boilerplate the analyzers compose instead of each
// hand-rolling its own file loop.

// inspect runs fn over every file in the package under analysis, in
// file order (the ast.Inspect contract: return false to skip a
// subtree).
func (p *Pass) inspect(fn func(ast.Node) bool) {
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, fn)
	}
}

// markerLines collects the line numbers of every comment in file
// containing marker. Line-based markers are the suppression idiom for
// statement-level rules (`//hsclint:deterministic` on a range or a go
// statement): a finding on a marked line — or the line directly below
// a marked line — is authored intent.
func markerLines(p *Pass, file *ast.File, marker string) map[int]bool {
	marked := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, marker) {
				marked[p.Pkg.Fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return marked
}
