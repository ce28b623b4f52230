package proto

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"path/filepath"
	"strings"

	"hscsim/internal/lint"
)

const recorderPkg = "hscsim/internal/fsm"

// Extract loads the controller packages (lint.ControllerPackages; dir
// is any directory inside the module) and returns the transition table
// reconstructed from their Record call sites.
func Extract(dir string) (*Table, error) {
	sites, err := ExtractSites(dir, lint.ControllerPackages...)
	if err != nil {
		return nil, err
	}
	return Build(sites)
}

// ExtractSites loads the given packages and returns every resolved
// Record call site, in source order.
func ExtractSites(dir string, patterns ...string) ([]Site, error) {
	pkgs, err := lint.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var sites []Site
	for _, pkg := range pkgs {
		s, err := packageSites(pkg)
		if err != nil {
			return nil, err
		}
		sites = append(sites, s...)
	}
	return sites, nil
}

func packageSites(pkg *lint.Package) ([]Site, error) {
	var sites []Site
	for _, file := range pkg.Files {
		// Trailing //proto: annotations are matched to call sites by
		// line; collect every comment's text per line first.
		lineText := make(map[int]string)
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				line := pkg.Fset.Position(c.Slash).Line
				lineText[line] += " " + c.Text
			}
		}
		var fileErr error
		ast.Inspect(file, func(n ast.Node) bool {
			if fileErr != nil {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok || !isRecordCall(pkg, call) {
				return true
			}
			pos := pkg.Fset.Position(call.Lparen)
			site, err := resolveSite(pkg, call, lineText[pos.Line])
			if err != nil {
				fileErr = err
				return false
			}
			sites = append(sites, site)
			return true
		})
		if fileErr != nil {
			return nil, fileErr
		}
	}
	return sites, nil
}

// isRecordCall reports whether the call is (*fsm.Recorder).Record.
func isRecordCall(pkg *lint.Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Record" {
		return false
	}
	s := pkg.Info.Selections[sel]
	if s == nil {
		return false
	}
	fn, ok := s.Obj().(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == recorderPkg
}

func resolveSite(pkg *lint.Package, call *ast.CallExpr, comment string) (Site, error) {
	pos := pkg.Fset.Position(call.Lparen)
	at := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
	if len(call.Args) != 4 {
		return Site{}, fmt.Errorf("proto: %s: Record call with %d args, want 4", at, len(call.Args))
	}
	attrs, err := parseAttrs(comment)
	if err != nil {
		return Site{}, fmt.Errorf("proto: %s: %v", at, err)
	}

	machine, ok := constString(pkg, call.Args[0])
	if !ok {
		return Site{}, fmt.Errorf("proto: %s: machine argument must be a string constant", at)
	}
	s := Site{Machine: machine, Pos: at, Actions: attrs["actions"]}
	if s.States, err = argDomain(pkg, call.Args[1], attrs, "states", at); err != nil {
		return Site{}, err
	}
	if s.Events, err = argDomain(pkg, call.Args[2], attrs, "events", at); err != nil {
		return Site{}, err
	}
	if s.Nexts, err = argDomain(pkg, call.Args[3], attrs, "next", at); err != nil {
		return Site{}, err
	}
	if w := attrs["when"]; w != "" {
		s.When = splitList(w)
	}
	if u := attrs["unless"]; u != "" {
		s.Unless = splitList(u)
	}
	if e := attrs["emits"]; e != "" {
		s.Emits = splitList(e)
	}
	if c := attrs["consumes"]; c != "" {
		s.Consumes = splitList(c)
	}
	return s, nil
}

// argDomain resolves one Record argument to its value domain: the
// constant's value when the argument is a typed or untyped string
// constant, the //proto: annotation otherwise.
func argDomain(pkg *lint.Package, arg ast.Expr, attrs map[string]string, key, at string) ([]string, error) {
	if v, ok := constString(pkg, arg); ok {
		return []string{v}, nil
	}
	if a := attrs[key]; a != "" {
		return splitList(a), nil
	}
	return nil, fmt.Errorf("proto: %s: %s argument is not constant and the call line has no //proto:%s annotation", at, key, key)
}

func constString(pkg *lint.Package, e ast.Expr) (string, bool) {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// parseAttrs parses the //proto: annotations out of a call line's
// comment text. Keys may appear at most once per site.
func parseAttrs(text string) (map[string]string, error) {
	attrs := make(map[string]string)
	chunks := strings.Split(text, "proto:")
	for _, chunk := range chunks[1:] {
		// A following comment marker ends the value.
		if i := strings.Index(chunk, "//"); i >= 0 {
			chunk = chunk[:i]
		}
		chunk = strings.TrimSpace(chunk)
		key, value := chunk, ""
		if i := strings.IndexByte(chunk, ' '); i >= 0 {
			key, value = chunk[:i], strings.TrimSpace(chunk[i+1:])
		}
		switch key {
		case "states", "events", "next", "actions", "when", "unless", "emits", "consumes":
			if _, dup := attrs[key]; dup {
				return nil, fmt.Errorf("duplicate //proto:%s annotation", key)
			}
			if value == "" {
				return nil, fmt.Errorf("empty //proto:%s annotation", key)
			}
			attrs[key] = value
		default:
			return nil, fmt.Errorf("unknown //proto:%s annotation", key)
		}
	}
	return attrs, nil
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
