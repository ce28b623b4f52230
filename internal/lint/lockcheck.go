package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockCheck is a flow-sensitive lock-discipline analyzer for the
// concurrent job engine. It interprets each function over the
// hand-rolled CFG in cfg.go, tracking a held-lock fact per
// sync.Mutex / sync.RWMutex field, and reports:
//
//   - blocking-under-lock: a channel send/receive, net/http call,
//     time.Sleep, WaitGroup/Cond Wait, io.ReadAll/Copy, or any callee
//     annotated //lockcheck:blocks, reached while a lock annotated
//     //lockcheck:fast is (possibly) held. This is the engine's one
//     lock incident — its mutex held across a blocking result-cache
//     probe — made impossible to reintroduce.
//   - missing-unlock: a lock still held on some path at return.
//     Deferred unlocks are replayed at exit (leniently: cfg.go collects
//     defers path-insensitively, so replay only clears facts and never
//     reports on its own).
//   - double-lock / mode mismatch / unlock-of-unheld, reported only
//     when definite (held or unheld on *every* path), so joins never
//     manufacture a report.
//   - lock-order inversion against a declared partial order
//     (//lockcheck:order a < b, transitively closed), both for direct
//     acquisitions and for same-package callees known to acquire.
//   - goroutine-lifecycle: a `go` statement in a sim-reachable or
//     server package must be tied to a WaitGroup (the spawned body
//     calls Done) or carry a //lockcheck:spawn annotation explaining
//     why its lifetime is bounded.
//
// Cross-function effects propagate through //lockcheck: annotations on
// function declarations and interface methods, indexed by types.Func
// full name (funcDirectives in driver.go):
//
//	//lockcheck:blocks                 — may block; never call under a fast lock
//	//lockcheck:neutral                — no lock effects and never blocks
//	//lockcheck:locks <lock names>     — returns holding the named locks
//	//lockcheck:unlocks <lock names>   — releases locks the caller holds
//
// Lock names are canonical: pkgname.Type.field for struct fields
// (engine.Engine.mu), pkgname.var for package-level locks. Tracking is
// instance-blind by design: two *different* Job values locked at once
// look like a double-lock of engine.Job.mu, which the concurrent tier
// avoids anyway (and the definite-only rule keeps sequential
// lock/unlock of distinct instances silent).
//
// An exhaustiveness pass demands an annotation on every exported
// method of a lock-holding type (a named struct with a direct mutex
// field), so the annotated surface cannot silently rot as the engine
// grows.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "lock discipline: no blocking under fast locks, unlock on every path, declared lock order, tracked goroutines",
	Run:  runLockCheck,
}

// lockPackages get the full discipline: held-set dataflow, lock order,
// exhaustive annotations. These are the packages that mix mutexes with
// goroutines and disk or network I/O.
var lockPackages = map[string]bool{
	"hscsim/internal/engine": true,
	"hscsim/internal/stats":  true,
	"hscsim/cmd/hscserve":    true,
}

const (
	lockPrefix      = "lockcheck:"
	lockFastMarker  = "lockcheck:fast"
	lockSpawnMarker = "lockcheck:spawn"
)

// held-lock lattice: one byte per lock name, bits accumulate along
// joins. A lock is *definitely* held when a held bit is set and the
// unheld bit is not; definitely unheld in the mirror case; anything
// else is may-held. Untracked names are unknown — the caller-held
// `*Locked` helper idiom stays silent.
const (
	lkUnheld uint8 = 1 << iota // unheld on some path into here
	lkRead                     // read-held on some path
	lkWrite                    // write-held on some path
)

const lkHeld = lkRead | lkWrite

type lockFacts map[string]uint8

func (f lockFacts) clone() lockFacts {
	out := make(lockFacts, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// join ORs src into dst, reporting whether dst changed.
func (f lockFacts) join(src lockFacts) bool {
	changed := false
	for k, v := range src {
		if f[k]|v != f[k] {
			f[k] |= v
			changed = true
		}
	}
	return changed
}

// lockAnnot is one function's parsed //lockcheck: contract.
type lockAnnot struct {
	locks   []string
	unlocks []string
	blocks  bool
	neutral bool
}

func lockAnnotOf(ds []directive) *lockAnnot {
	an := &lockAnnot{}
	seen := false
	for _, d := range ds {
		switch d.verb {
		case "locks":
			an.locks = append(an.locks, d.args()...)
		case "unlocks":
			an.unlocks = append(an.unlocks, d.args()...)
		case "blocks":
			an.blocks = true
		case "neutral":
			an.neutral = true
		default:
			continue
		}
		seen = true
	}
	if !seen {
		return nil
	}
	return an
}

// blockWitness records why a function was inferred blocking.
type blockWitness struct {
	pos  token.Pos
	desc string
}

type lockCtx struct {
	pass   *Pass
	annots map[string]*lockAnnot // types.Func full name → contract
	fast   map[string]bool       // canonical lock name → //lockcheck:fast

	// order is the transitive closure of the declared partial order:
	// order[a][b] means a must be acquired before b. orderDecl remembers
	// one declaration site per edge for cycle reports.
	order     map[string]map[string]bool
	orderDecl []orderEdge

	names map[*types.Var]string // canonical-name cache

	// Same-package inference: which functions (without annotations)
	// block, and which lock names they may acquire, directly or through
	// same-package callees.
	funcs    map[*types.Func]*ast.FuncDecl
	blocking map[*types.Func]*blockWitness
	touched  map[*types.Func]map[string]bool

	// nonblock holds positions of channel operations that cannot block:
	// comm clauses of a select that has a default clause.
	nonblock map[token.Pos]bool

	analyzed map[*ast.FuncLit]bool
}

type orderEdge struct {
	before, after string
	pos           token.Pos
	inPkg         bool // declared in the package under analysis
}

func runLockCheck(p *Pass) {
	full := lockPackages[p.Pkg.PkgPath]
	if !full && !detPackages[p.Pkg.PkgPath] {
		return
	}
	ctx := newLockCtx(p)
	ctx.checkGoroutines()
	if !full {
		return
	}
	ctx.checkOrderCycles()
	ctx.inferSamePkg()
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := p.Pkg.Info.Defs[fd.Name].(*types.Func)
			ctx.analyzeFunc(fn, fd)
		}
	}
	ctx.checkExhaustive()
	ctx.checkNeutralMismatch()
}

func newLockCtx(p *Pass) *lockCtx {
	ctx := &lockCtx{
		pass:     p,
		fast:     make(map[string]bool),
		order:    make(map[string]map[string]bool),
		names:    make(map[*types.Var]string),
		funcs:    make(map[*types.Func]*ast.FuncDecl),
		blocking: make(map[*types.Func]*blockWitness),
		touched:  make(map[*types.Func]map[string]bool),
		nonblock: make(map[token.Pos]bool),
		analyzed: make(map[*ast.FuncLit]bool),
	}
	ctx.annots = make(map[string]*lockAnnot)
	for fn, ds := range funcDirectives(p.All, lockPrefix) {
		if an := lockAnnotOf(ds); an != nil {
			ctx.annots[fn] = an
		}
	}
	for _, pkg := range p.All {
		ctx.collectFieldAndOrderDecls(pkg)
	}
	for _, file := range p.Pkg.Files {
		ctx.collectNonblocking(file)
	}
	for _, decl := range allFuncDecls(p.Pkg) {
		if fn, ok := p.Pkg.Info.Defs[decl.Name].(*types.Func); ok && decl.Body != nil {
			ctx.funcs[fn] = decl
		}
	}
	ctx.closeOrder()
	return ctx
}

func allFuncDecls(pkg *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				out = append(out, fd)
			}
		}
	}
	return out
}

// collectFieldAndOrderDecls gathers //lockcheck:fast field markers and
// //lockcheck:order file directives from one loaded package.
func (ctx *lockCtx) collectFieldAndOrderDecls(pkg *Package) {
	inPkg := pkg == ctx.pass.Pkg
	for _, file := range pkg.Files {
		for _, d := range parseDirectives(lockPrefix, file.Comments...) {
			if d.verb != "order" {
				continue
			}
			chain := strings.Split(d.rest, "<")
			for i := 0; i+1 < len(chain); i++ {
				before := strings.TrimSpace(chain[i])
				after := strings.TrimSpace(chain[i+1])
				if before == "" || after == "" {
					continue
				}
				if ctx.order[before] == nil {
					ctx.order[before] = make(map[string]bool)
				}
				ctx.order[before][after] = true
				ctx.orderDecl = append(ctx.orderDecl, orderEdge{before: before, after: after, pos: d.pos, inPkg: inPkg})
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				if !commentsHaveMarker(lockFastMarker, f.Doc, f.Comment) {
					continue
				}
				for _, name := range f.Names {
					if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
						ctx.fast[ctx.nameOf(v)] = true
					}
				}
			}
			return true
		})
	}
}

// closeOrder computes the transitive closure of the declared order.
func (ctx *lockCtx) closeOrder() {
	var keys []string
	for k := range ctx.order { //hsclint:deterministic — closure is order-independent
		keys = append(keys, k)
	}
	for range keys {
		for _, a := range keys {
			for b := range ctx.order[a] { //hsclint:deterministic — set union
				for c := range ctx.order[b] { //hsclint:deterministic — set union
					ctx.order[a][c] = true
				}
			}
		}
	}
}

// checkOrderCycles reports a declared order that contradicts itself.
// Only edges declared in the package under analysis report, so a cycle
// is diagnosed once, not once per loaded package.
func (ctx *lockCtx) checkOrderCycles() {
	for _, e := range ctx.orderDecl {
		if e.inPkg && ctx.order[e.before][e.before] {
			ctx.pass.Report(e.pos, "lock order directives form a cycle involving %s", e.before)
		}
	}
}

// collectNonblocking records the channel-operation positions inside
// comm clauses of selects that have a default clause — those sends and
// receives cannot block.
func (ctx *lockCtx) collectNonblocking(file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, raw := range sel.Body.List {
			if raw.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, raw := range sel.Body.List {
			c := raw.(*ast.CommClause)
			if c.Comm == nil {
				continue
			}
			ast.Inspect(c.Comm, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.SendStmt:
					ctx.nonblock[x.Pos()] = true
				case *ast.UnaryExpr:
					if x.Op == token.ARROW {
						ctx.nonblock[x.Pos()] = true
					}
				}
				return true
			})
		}
		return true
	})
}

// --- canonical lock names --------------------------------------------

// nameOf returns the canonical, cross-package-stable name for a lock
// variable: pkgname.Type.field for struct fields, pkgname.var for
// package-level locks, the bare name for locals.
func (ctx *lockCtx) nameOf(v *types.Var) string {
	if n, ok := ctx.names[v]; ok {
		return n
	}
	name := v.Name()
	if pkg := v.Pkg(); pkg != nil {
		switch {
		case v.IsField():
			if owner := fieldOwner(pkg, v); owner != "" {
				name = pkg.Name() + "." + owner + "." + v.Name()
			} else {
				name = pkg.Name() + "." + v.Name()
			}
		case pkg.Scope().Lookup(v.Name()) == v:
			name = pkg.Name() + "." + v.Name()
		}
	}
	ctx.names[v] = name
	return name
}

// fieldOwner finds the named struct declaring field v.
func fieldOwner(pkg *types.Package, v *types.Var) string {
	scope := pkg.Scope()
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
			if st.Field(i) == v {
				return tn.Name()
			}
		}
	}
	return ""
}

// lockVarOf resolves the receiver expression of a mutex method call
// (e.mu, s.registry.mu, &x.mu, plain mu) to its variable.
func (ctx *lockCtx) lockVarOf(e ast.Expr) *types.Var {
	info := ctx.pass.Pkg.Info
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ := info.Uses[e].(*types.Var)
		if v == nil {
			v, _ = info.Defs[e].(*types.Var)
		}
		return v
	case *ast.SelectorExpr:
		v, _ := info.Uses[e.Sel].(*types.Var)
		return v
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return ctx.lockVarOf(e.X)
		}
	}
	return nil
}

// mutexMethod classifies call as a sync.Mutex/RWMutex method and
// resolves the lock name. kind is the method name ("Lock", "RUnlock",
// "TryLock", ...), or "" when the call is not a mutex operation on a
// resolvable variable.
func (ctx *lockCtx) mutexMethod(call *ast.CallExpr) (name, kind string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", ""
	}
	fn, ok := ctx.pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	v := ctx.lockVarOf(sel.X)
	if v == nil {
		return "", ""
	}
	return ctx.nameOf(v), sel.Sel.Name
}

// calleeOf resolves a call target to its *types.Func (nil for function
// values and literals).
func (ctx *lockCtx) calleeOf(fun ast.Expr) *types.Func {
	switch fun := ast.Unparen(fun).(type) {
	case *ast.Ident:
		f, _ := ctx.pass.Pkg.Info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := ctx.pass.Pkg.Info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// intrinsicBlocks classifies well-known blocking callees by package
// path, type, and name — no annotation needed for the stdlib surface.
func intrinsicBlocks(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	path := strings.TrimPrefix(pkg.Path(), "vendor/")
	recv := receiverTypeName(fn)
	switch path {
	case "time":
		if recv == "" && fn.Name() == "Sleep" {
			return "time.Sleep"
		}
	case "sync":
		if fn.Name() == "Wait" && (recv == "WaitGroup" || recv == "Cond") {
			return "sync." + recv + ".Wait"
		}
	case "io":
		if recv == "" {
			switch fn.Name() {
			case "ReadAll", "Copy", "CopyN":
				return "io." + fn.Name()
			}
		}
	case "net/http":
		switch recv {
		case "":
			switch fn.Name() {
			case "Get", "Post", "PostForm", "Head", "ListenAndServe", "ListenAndServeTLS":
				return "http." + fn.Name()
			}
		case "Client":
			switch fn.Name() {
			case "Do", "Get", "Post", "PostForm", "Head":
				return "http.Client." + fn.Name()
			}
		case "Server":
			switch fn.Name() {
			case "ListenAndServe", "ListenAndServeTLS", "Serve", "Shutdown", "Close":
				return "http.Server." + fn.Name()
			}
		}
	}
	return ""
}

func receiverTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// --- same-package inference ------------------------------------------

// inferSamePkg computes, to a fixpoint, which unannotated functions in
// this package block and which lock names each may acquire — so a
// helper that locks or blocks is caught at its call sites without an
// annotation. Spawned goroutine bodies are excluded: their effects
// happen on another stack.
func (ctx *lockCtx) inferSamePkg() {
	for iter := 0; iter < 20; iter++ {
		changed := false
		for fn, fd := range ctx.funcs { //hsclint:deterministic — monotone accumulation
			if ctx.inferOne(fn, fd) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

func (ctx *lockCtx) inferOne(fn *types.Func, fd *ast.FuncDecl) (changed bool) {
	touch := func(name string) {
		if ctx.touched[fn] == nil {
			ctx.touched[fn] = make(map[string]bool)
		}
		if !ctx.touched[fn][name] {
			ctx.touched[fn][name] = true
			changed = true
		}
	}
	block := func(pos token.Pos, desc string) {
		if ctx.blocking[fn] == nil {
			ctx.blocking[fn] = &blockWitness{pos: pos, desc: desc}
			changed = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false // spawned body runs on another goroutine
		case *ast.SendStmt:
			if !ctx.nonblock[n.Pos()] {
				block(n.Pos(), "channel send")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !ctx.nonblock[n.Pos()] {
				block(n.Pos(), "channel receive")
			}
		case *ast.RangeStmt:
			if tv, ok := ctx.pass.Pkg.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					block(n.Pos(), "range over channel")
				}
			}
		case *ast.CallExpr:
			if name, kind := ctx.mutexMethod(n); name != "" {
				if kind == "Lock" || kind == "RLock" || kind == "TryLock" || kind == "TryRLock" {
					touch(name)
				}
				return true
			}
			callee := ctx.calleeOf(n.Fun)
			if callee == nil {
				return true
			}
			if an := ctx.annots[callee.FullName()]; an != nil {
				if an.blocks {
					block(n.Pos(), "call to "+callee.Name()+" (//lockcheck:blocks)")
				}
				for _, l := range an.locks {
					touch(l)
				}
				return true
			}
			if desc := intrinsicBlocks(callee); desc != "" {
				block(n.Pos(), desc)
				return true
			}
			if w := ctx.blocking[callee]; w != nil {
				block(n.Pos(), "call to "+callee.Name()+" ("+w.desc+")")
			}
			for name := range ctx.touched[callee] { //hsclint:deterministic — set union
				touch(name)
			}
		}
		return true
	})
	return changed
}

// --- per-function dataflow -------------------------------------------

type lockFunc struct {
	ctx   *lockCtx
	label string // for reports
	body  *ast.BlockStmt
	annot *lockAnnot
	entry lockFacts

	acquirePos map[string]token.Pos // first acquisition site per name
	queued     []*ast.FuncLit
}

func (ctx *lockCtx) analyzeFunc(fn *types.Func, fd *ast.FuncDecl) {
	lf := &lockFunc{
		ctx:        ctx,
		label:      fd.Name.Name,
		body:       fd.Body,
		entry:      lockFacts{},
		acquirePos: make(map[string]token.Pos),
	}
	if fn != nil {
		lf.annot = ctx.annots[fn.FullName()]
	}
	if lf.annot != nil {
		// //lockcheck:unlocks — the caller hands the lock in held.
		for _, name := range lf.annot.unlocks {
			lf.entry[name] = lkWrite
		}
		// //lockcheck:locks — definitely unheld at entry, so the
		// exit-time contract check can tell a path that skipped the
		// acquisition (unheld bit survives the join) from one that
		// took it.
		for _, name := range lf.annot.locks {
			if _, ok := lf.entry[name]; !ok {
				lf.entry[name] = lkUnheld
			}
		}
	}
	lf.run(fd.Name.Pos())
	ctx.analyzeQueued(lf)
}

// analyzeQueued runs every function literal discovered in lf with an
// empty entry state (a literal runs later — as a goroutine, a deferred
// cleanup, or a callback — with its own lock context).
func (ctx *lockCtx) analyzeQueued(lf *lockFunc) {
	for len(lf.queued) > 0 {
		lit := lf.queued[0]
		lf.queued = lf.queued[1:]
		if ctx.analyzed[lit] {
			continue
		}
		ctx.analyzed[lit] = true
		sub := &lockFunc{
			ctx:        ctx,
			label:      "function literal",
			body:       lit.Body,
			entry:      lockFacts{},
			acquirePos: make(map[string]token.Pos),
		}
		sub.run(lit.Pos())
		lf.queued = append(lf.queued, sub.queued...)
	}
}

// run executes the dataflow: fixpoint over the CFG, one reporting
// sweep with the final in-facts, then the exit checks (deferred
// unlocks replayed leniently, then missing-unlock and the locks
// contract).
func (lf *lockFunc) run(declPos token.Pos) {
	g := buildCFG(lf.body)
	in := make([]lockFacts, len(g.blocks))
	for i := range in {
		in[i] = lockFacts{}
	}
	in[g.entry.index] = lf.entry.clone()

	for iter := 0; iter < 64; iter++ {
		changed := false
		for _, b := range g.blocks {
			out := in[b.index].clone()
			for _, atom := range b.nodes {
				lf.interpret(atom, out, false)
			}
			for _, s := range b.succs {
				if in[s.index].join(out) {
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	// Reporting sweep: every atom once, with its block's final in-facts.
	for _, b := range g.blocks {
		out := in[b.index].clone()
		for _, atom := range b.nodes {
			lf.interpret(atom, out, true)
		}
	}

	// Exit state: join of every predecessor of exit, then deferred
	// calls replayed in reverse — leniently, because cfg.go collects
	// defers regardless of registration path.
	exit := in[g.exit.index].clone()
	for i := len(g.atExit) - 1; i >= 0; i-- {
		lf.replayDefer(g.atExit[i], exit)
	}
	for name, bits := range exit {
		if bits&lkHeld == 0 {
			continue
		}
		if lf.annot != nil && contains(lf.annot.locks, name) {
			continue
		}
		pos := lf.acquirePos[name]
		if pos == token.NoPos {
			pos = declPos
		}
		lf.ctx.pass.Report(pos,
			"%s acquired here may still be held when %s returns — unlock it on every path (or defer)",
			name, lf.label)
	}
	if lf.annot != nil {
		for _, name := range lf.annot.locks {
			if exit[name]&lkHeld == 0 || exit[name]&lkUnheld != 0 {
				lf.ctx.pass.Report(declPos,
					"%s is annotated //lockcheck:locks %s but does not hold it on every return path",
					lf.label, name)
			}
		}
	}
}

// replayDefer applies a deferred call's unlock effects to the exit
// facts. Only clearing, never reporting: defers are path-insensitive
// in this CFG.
func (lf *lockFunc) replayDefer(call *ast.CallExpr, facts lockFacts) {
	apply := func(c *ast.CallExpr) {
		if name, kind := lf.ctx.mutexMethod(c); name != "" {
			if kind == "Unlock" || kind == "RUnlock" {
				if _, ok := facts[name]; ok {
					facts[name] = lkUnheld
				}
			}
			return
		}
		if fn := lf.ctx.calleeOf(c.Fun); fn != nil {
			if an := lf.ctx.annots[fn.FullName()]; an != nil {
				for _, name := range an.unlocks {
					if _, ok := facts[name]; ok {
						facts[name] = lkUnheld
					}
				}
			}
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				apply(c)
			}
			return true
		})
		return
	}
	apply(call)
}

// interpret applies one CFG atom to the facts. When emit is set this
// is the reporting sweep; the fixpoint passes stay silent.
func (lf *lockFunc) interpret(atom ast.Node, facts lockFacts, emit bool) {
	switch n := atom.(type) {
	case *ast.RangeStmt:
		// The atom covers X's evaluation only; the body has its own
		// blocks. Range over a channel parks until the channel closes.
		lf.walk(n.X, facts, emit)
		if tv, ok := lf.ctx.pass.Pkg.Info.Types[n.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				lf.blockingOp(n.Pos(), "range over channel", facts, emit)
			}
		}
		return
	case *ast.DeferStmt:
		// Argument evaluation happens now; the call itself runs at
		// exit (replayDefer). A deferred literal's body is analyzed
		// independently.
		for _, a := range n.Call.Args {
			lf.walk(a, facts, emit)
		}
		if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok && emit {
			lf.queued = append(lf.queued, lit)
		}
		return
	case *ast.GoStmt:
		// Spawning never blocks; the body runs with its own (empty)
		// lock context. Lifecycle is checkGoroutines' rule.
		for _, a := range n.Call.Args {
			lf.walk(a, facts, emit)
		}
		if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok && emit {
			lf.queued = append(lf.queued, lit)
		}
		return
	}
	lf.walk(atom, facts, emit)
}

// walk interprets every lock-relevant node inside one atom.
func (lf *lockFunc) walk(root ast.Node, facts lockFacts, emit bool) {
	if root == nil {
		return
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if emit {
				lf.queued = append(lf.queued, n)
			}
			return false
		case *ast.SendStmt:
			if !lf.ctx.nonblock[n.Pos()] {
				lf.blockingOp(n.Pos(), "channel send", facts, emit)
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !lf.ctx.nonblock[n.Pos()] {
				lf.blockingOp(n.Pos(), "channel receive", facts, emit)
			}
		case *ast.CallExpr:
			lf.call(n, facts, emit)
		}
		return true
	})
}

func (lf *lockFunc) call(call *ast.CallExpr, facts lockFacts, emit bool) {
	ctx := lf.ctx
	if name, kind := ctx.mutexMethod(call); name != "" {
		switch kind {
		case "Lock":
			lf.acquire(call.Pos(), name, lkWrite, false, facts, emit)
		case "RLock":
			lf.acquire(call.Pos(), name, lkRead, false, facts, emit)
		case "TryLock":
			lf.acquire(call.Pos(), name, lkWrite, true, facts, emit)
		case "TryRLock":
			lf.acquire(call.Pos(), name, lkRead, true, facts, emit)
		case "Unlock":
			lf.release(call.Pos(), name, lkWrite, facts, emit)
		case "RUnlock":
			lf.release(call.Pos(), name, lkRead, facts, emit)
		}
		return
	}
	fn := ctx.calleeOf(call.Fun)
	if fn == nil {
		return
	}
	if an := ctx.annots[fn.FullName()]; an != nil {
		if an.blocks {
			lf.blockingOp(call.Pos(), "call to "+fn.Name()+" (//lockcheck:blocks)", facts, emit)
		}
		for _, name := range an.locks {
			lf.acquire(call.Pos(), name, lkWrite, false, facts, emit)
		}
		for _, name := range an.unlocks {
			bits, tracked := facts[name]
			if emit && tracked && bits == lkUnheld {
				ctx.pass.Report(call.Pos(), "call to %s unlocks %s, which is not held here", fn.Name(), name)
			}
			facts[name] = lkUnheld
		}
		return
	}
	if desc := intrinsicBlocks(fn); desc != "" {
		lf.blockingOp(call.Pos(), desc, facts, emit)
		return
	}
	// Same-package inference: helpers that block or lock are effects
	// at this call site too.
	if w := ctx.blocking[fn]; w != nil {
		lf.blockingOp(call.Pos(), "call to "+fn.Name()+" ("+w.desc+")", facts, emit)
	}
	if emit {
		for _, name := range sortedKeys(ctx.touched[fn]) {
			if facts[name]&lkHeld != 0 && facts[name]&lkUnheld == 0 {
				ctx.pass.Report(call.Pos(),
					"call to %s acquires %s, which is already held — self-deadlock", fn.Name(), name)
			}
			lf.checkOrder(call.Pos(), name, facts)
		}
	}
}

func (lf *lockFunc) acquire(pos token.Pos, name string, mode uint8, conditional bool, facts lockFacts, emit bool) {
	bits, tracked := facts[name]
	if emit {
		definiteHeld := tracked && bits&lkHeld != 0 && bits&lkUnheld == 0
		if definiteHeld && (mode == lkWrite || bits&lkWrite != 0) {
			lf.ctx.pass.Report(pos, "%s is already held here — this acquisition self-deadlocks", name)
		}
		lf.checkOrder(pos, name, facts)
		if _, ok := lf.acquirePos[name]; !ok {
			lf.acquirePos[name] = pos
		}
	}
	if conditional {
		facts[name] = bits | mode | lkUnheld
	} else {
		facts[name] = mode
	}
}

func (lf *lockFunc) release(pos token.Pos, name string, mode uint8, facts lockFacts, emit bool) {
	bits, tracked := facts[name]
	if emit && tracked {
		switch {
		case bits == lkUnheld:
			lf.ctx.pass.Report(pos, "%s is not held at this unlock", name)
		case bits&lkUnheld == 0 && mode == lkWrite && bits == lkRead:
			lf.ctx.pass.Report(pos, "%s is read-held here — use RUnlock, not Unlock", name)
		case bits&lkUnheld == 0 && mode == lkRead && bits == lkWrite:
			lf.ctx.pass.Report(pos, "%s is write-held here — use Unlock, not RUnlock", name)
		}
	}
	facts[name] = lkUnheld
}

// checkOrder reports an inversion: acquiring name while a lock that
// the declared order places *after* name is held.
func (lf *lockFunc) checkOrder(pos token.Pos, name string, facts lockFacts) {
	for _, held := range sortedKeys(lf.ctx.order[name]) {
		if held == name {
			continue
		}
		if facts[held]&lkHeld != 0 {
			lf.ctx.pass.Report(pos,
				"acquiring %s while %s is held inverts the declared lock order (%s < %s)",
				name, held, name, held)
		}
	}
}

// blockingOp reports a possibly-blocking operation under every fast
// lock that may be held.
func (lf *lockFunc) blockingOp(pos token.Pos, desc string, facts lockFacts, emit bool) {
	if !emit {
		return
	}
	for _, name := range sortedKeys(facts) {
		if facts[name]&lkHeld != 0 && lf.ctx.fast[name] {
			lf.ctx.pass.Report(pos,
				"blocking operation (%s) while fast lock %s may be held — release it first, or move the work outside the critical section",
				desc, name)
		}
	}
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	var keys []string
	for k := range m { //hsclint:deterministic — sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// --- goroutine lifecycle ---------------------------------------------

// checkGoroutines demands every `go` statement be tied to a WaitGroup
// (the spawned body — or its same-package callee — calls Done) or be
// annotated //lockcheck:spawn <why the lifetime is bounded> on its
// line or the line above.
func (ctx *lockCtx) checkGoroutines() {
	p := ctx.pass
	for _, file := range p.Pkg.Files {
		marked := markerLines(p, file, lockSpawnMarker)
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			line := p.Pkg.Fset.Position(gs.Pos()).Line
			if marked[line] || marked[line-1] {
				return true
			}
			if ctx.goStmtTied(gs) {
				return true
			}
			p.Report(gs.Pos(),
				"goroutine is not tied to a WaitGroup and has no //%s annotation — it can outlive shutdown",
				lockSpawnMarker)
			return true
		})
	}
}

// goStmtTied reports whether the spawned body provably signals a
// WaitGroup: a literal body calling (*sync.WaitGroup).Done, or a call
// to a same-package function whose body does.
func (ctx *lockCtx) goStmtTied(gs *ast.GoStmt) bool {
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		return ctx.bodySignalsWaitGroup(lit.Body)
	}
	if fn := ctx.calleeOf(gs.Call.Fun); fn != nil {
		if fd := ctx.declOf(fn); fd != nil && fd.Body != nil {
			return ctx.bodySignalsWaitGroup(fd.Body)
		}
	}
	return false
}

// declOf finds the same-package declaration of fn (checkGoroutines
// runs in packages where ctx.funcs is not populated, so look directly).
func (ctx *lockCtx) declOf(fn *types.Func) *ast.FuncDecl {
	if fd, ok := ctx.funcs[fn]; ok {
		return fd
	}
	for _, file := range ctx.pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if def, _ := ctx.pass.Pkg.Info.Defs[fd.Name].(*types.Func); def == fn {
				return fd
			}
		}
	}
	return nil
}

func (ctx *lockCtx) bodySignalsWaitGroup(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return true
		}
		fn, ok := ctx.pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
		if ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" && receiverTypeName(fn) == "WaitGroup" {
			found = true
		}
		return true
	})
	return found
}

// --- exhaustiveness and annotation hygiene ---------------------------

// checkExhaustive demands a //lockcheck: annotation on every exported
// method of a lock-holding type (a package-scope named struct with a
// direct sync.Mutex/RWMutex field), so callers in other packages
// always have a contract to check against.
func (ctx *lockCtx) checkExhaustive() {
	p := ctx.pass
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !fd.Name.IsExported() {
				continue
			}
			fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			recv := receiverTypeName(fn)
			if recv == "" || !ctx.lockHolding(recv) {
				continue
			}
			if ctx.annots[fn.FullName()] == nil {
				p.Report(fd.Name.Pos(),
					"exported method %s of lock-holding type %s needs a //lockcheck: annotation (locks, unlocks, blocks, or neutral)",
					fd.Name.Name, recv)
			}
		}
	}
}

// lockHolding reports whether the package-scope type has a direct
// mutex field.
func (ctx *lockCtx) lockHolding(typeName string) bool {
	tn, ok := ctx.pass.Pkg.Types.Scope().Lookup(typeName).(*types.TypeName)
	if !ok {
		return false
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isMutexType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// checkNeutralMismatch reports functions whose //lockcheck:neutral
// claim is contradicted by an inferred blocking witness in their body.
func (ctx *lockCtx) checkNeutralMismatch() {
	for _, fd := range allFuncDecls(ctx.pass.Pkg) {
		if fd.Body == nil {
			continue
		}
		fn, ok := ctx.pass.Pkg.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		an := ctx.annots[fn.FullName()]
		if an == nil || !an.neutral || an.blocks {
			continue
		}
		if w := ctx.blocking[fn]; w != nil {
			pos := ctx.pass.Pkg.Fset.Position(w.pos)
			ctx.pass.Report(fd.Name.Pos(),
				"%s is annotated //lockcheck:neutral but contains a blocking operation (%s at line %d)",
				fd.Name.Name, w.desc, pos.Line)
		}
	}
}
