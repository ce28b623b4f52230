package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the shared analyzer driver: the package-walking,
// marker-scanning and annotation-indexing boilerplate the analyzers
// compose instead of each hand-rolling its own file loop and
// annotation index.

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
// statement-level rules (`//hsclint:deterministic` on a range,
// `//lockcheck:spawn` on a go statement): a finding on a marked line —
// or the line directly below a marked line — is authored intent.
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

// commentsHaveMarker reports whether any of the comment groups (a
// field's Doc or line Comment, typically) contains marker.
func commentsHaveMarker(marker string, groups ...*ast.CommentGroup) bool {
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if strings.Contains(c.Text, marker) {
				return true
			}
		}
	}
	return false
}

// directive is one parsed `//<prefix>:<verb> <rest>` comment line.
type directive struct {
	verb string
	rest string
	pos  token.Pos
}

// args splits the directive's rest on commas and spaces.
func (d directive) args() []string {
	return strings.FieldsFunc(d.rest, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t'
	})
}

// parseDirectives extracts every `//<prefix><verb> <rest>` directive
// from the comment groups. prefix includes the trailing colon
// ("lockcheck:").
func parseDirectives(prefix string, groups ...*ast.CommentGroup) []directive {
	var out []directive
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, prefix) {
				continue
			}
			verb, rest, _ := strings.Cut(strings.TrimPrefix(text, prefix), " ")
			out = append(out, directive{verb: verb, rest: strings.TrimSpace(rest), pos: c.Pos()})
		}
	}
	return out
}

// funcDirectives collects `//<prefix>...` directives from every
// function declaration and interface method across all loaded
// packages, keyed by types.Func full name — so cross-package call
// sites (which see a distinct export-data object) still resolve. It
// serves any annotation vocabulary; lockcheck's is the one in use.
func funcDirectives(pkgs []*Package, prefix string) map[string][]directive {
	idx := make(map[string][]directive)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				ds := parseDirectives(prefix, fd.Doc)
				if len(ds) == 0 {
					continue
				}
				if fn, ok := funcObj(pkg, fd.Name); ok {
					idx[fn] = append(idx[fn], ds...)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				it, ok := n.(*ast.InterfaceType)
				if !ok {
					return true
				}
				for _, m := range it.Methods.List {
					if len(m.Names) == 0 {
						continue
					}
					ds := parseDirectives(prefix, m.Doc, m.Comment)
					if len(ds) == 0 {
						continue
					}
					if fn, ok := funcObj(pkg, m.Names[0]); ok {
						idx[fn] = append(idx[fn], ds...)
					}
				}
				return true
			})
		}
	}
	return idx
}

// funcObj resolves a declaring identifier to its types.Func full name.
func funcObj(pkg *Package, id *ast.Ident) (string, bool) {
	if fn, ok := pkg.Info.Defs[id].(*types.Func); ok {
		return fn.FullName(), true
	}
	return "", false
}
