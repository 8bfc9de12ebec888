package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the lint engine's lightweight intraprocedural dataflow
// layer. For every function in a package it computes a funcSummary —
// which locks it acquires and releases (by a package-wide lock class),
// whether its parameters are stopped / escape, which struct fields it
// touches through the function-form sync/atomic API, and whether its
// body carries a goroutine completion signal — plus a package-local
// call graph. Summaries are built once per package in lintPackage and
// shared by every analyzer through Pass.sum, giving the concurrency
// analyzers (lockorder, atomicfield, timerleak, goleak) one level of
// summary propagation: a caller can ask what a same-package callee does
// with a lock or a timer without re-walking its body.
//
// The layer is deliberately conservative in the same direction as the
// rest of the engine: missing type information means "unknown", and
// unknown must silence a diagnostic, never invent one.

// fieldKey names a struct field package-wide: the defining named type
// plus the field name.
type fieldKey struct {
	typeName string
	field    string
}

func (k fieldKey) String() string { return k.typeName + "." + k.field }

// lockOp is one mutex operation observed in source order.
type lockOp struct {
	key     string // package-wide lock class, e.g. "MuxClient.mu"
	pos     token.Pos
	acquire bool // Lock/RLock/TryLock vs Unlock/RUnlock
	read    bool // RLock/RUnlock
}

// paramUse records what a function does with one of its parameters.
type paramUse struct {
	stopped bool // .Stop() is called on it (timers/tickers)
	escapes bool // returned, stored, or passed somewhere unanalyzed
}

// funcSummary is the per-function dataflow summary.
type funcSummary struct {
	obj  *types.Func
	decl *ast.FuncDecl

	// acquires lists every lock class the function acquires, in source
	// order, with the acquisition site (for propagated ordering edges).
	acquires []lockOp
	// releasesUnheld are lock classes the function releases without
	// having acquired them first — helpers that unlock a caller's lock.
	releasesUnheld []string
	// params maps parameter index to its observed uses.
	params map[int]paramUse
	// hasCompletion reports a visible goroutine completion signal
	// anywhere in the body (Done call, channel send, close).
	hasCompletion bool
	// atomicFields are the fields this function touches via the
	// function-form sync/atomic API (atomic.AddInt64(&x.f, …)).
	atomicFields map[fieldKey][]token.Pos
	// calls are the same-package functions this function calls, in
	// source order with call sites — the package-local call graph edge
	// list used for one level of propagation.
	calls []callSite
}

type callSite struct {
	fn  *types.Func
	pos token.Pos
}

// pkgSummary aggregates the per-function summaries of one package.
type pkgSummary struct {
	funcs map[*types.Func]*funcSummary
	// atomicFields unions every function's atomic touches, and
	// atomicNodes marks the exact selector nodes used inside atomic
	// calls so atomicfield can skip them when hunting plain accesses.
	atomicFields map[fieldKey][]token.Pos
	atomicNodes  map[*ast.SelectorExpr]bool
	// fieldObjs resolves a fieldKey back to its types.Var for
	// object-identity matching of plain accesses.
	fieldObjs map[fieldKey]*types.Var
}

// summarize builds the package summary. It is called once per package
// by lintPackage and attached to every Pass.
func summarize(p *Pass) *pkgSummary {
	sum := &pkgSummary{
		funcs:        map[*types.Func]*funcSummary{},
		atomicFields: map[fieldKey][]token.Pos{},
		atomicNodes:  map[*ast.SelectorExpr]bool{},
		fieldObjs:    map[fieldKey]*types.Var{},
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fs := summarizeFunc(p, sum, fd)
			if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok && obj != nil {
				fs.obj = obj
				sum.funcs[obj] = fs
			}
		}
	}
	return sum
}

// lookup returns the summary for a same-package function object.
func (s *pkgSummary) lookup(obj types.Object) *funcSummary {
	fn, ok := obj.(*types.Func)
	if !ok || s == nil {
		return nil
	}
	return s.funcs[fn]
}

// summarizeFunc walks one function body and fills its summary.
func summarizeFunc(p *Pass, sum *pkgSummary, fd *ast.FuncDecl) *funcSummary {
	fs := &funcSummary{
		decl:         fd,
		params:       map[int]paramUse{},
		atomicFields: map[fieldKey][]token.Pos{},
	}
	paramObjs := map[types.Object]int{}
	idx := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := p.Info.Defs[name]; obj != nil {
					paramObjs[obj] = idx
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}
	fs.hasCompletion = hasCompletionSignal(fd.Body)
	held := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			summarizeCall(p, sum, fs, paramObjs, held, n)
		case *ast.Ident:
			// A parameter referenced outside a recognized call shape
			// escapes: returns, stores, composite literals, arguments to
			// functions we did not classify. escape marking happens in
			// summarizeEscapes below; nothing to do here.
		}
		return true
	})
	summarizeEscapes(p, fs, paramObjs, fd.Body)
	return fs
}

// summarizeCall classifies one call expression for the summary: lock
// ops, parameter stops, atomic field touches, and same-package
// call-graph edges.
func summarizeCall(p *Pass, sum *pkgSummary, fs *funcSummary, paramObjs map[types.Object]int, held map[string]bool, call *ast.CallExpr) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		// Same-package call-graph edge.
		if fn, ok := p.Info.Uses[fun].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == p.Path {
			fs.calls = append(fs.calls, callSite{fn: fn, pos: call.Pos()})
		}
	case *ast.SelectorExpr:
		if op, ok := mutexOp(p, fun); ok {
			if key, ok := lockClass(p, fun.X); ok {
				op.key = key
				op.pos = call.Pos()
				if op.acquire {
					fs.acquires = append(fs.acquires, op)
					held[key] = true
				} else if !held[key] {
					fs.releasesUnheld = append(fs.releasesUnheld, key)
				}
			}
			return
		}
		// .Stop() on a parameter (timers, tickers).
		if fun.Sel.Name == "Stop" {
			if id, ok := fun.X.(*ast.Ident); ok {
				if i, ok := paramObjs[p.Info.Uses[id]]; ok {
					u := fs.params[i]
					u.stopped = true
					fs.params[i] = u
				}
			}
		}
		// Function-form sync/atomic touch: atomic.AddInt64(&x.f, …).
		if pkgPath, ok := importedPackage(p, fun.X); ok && pkgPath == "sync/atomic" {
			summarizeAtomicCall(p, sum, fs, call)
			return
		}
		// Same-package method call edge.
		if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == p.Path {
			fs.calls = append(fs.calls, callSite{fn: fn, pos: call.Pos()})
		}
	}
}

// summarizeAtomicCall records the struct field behind the &x.f argument
// of a function-form sync/atomic call.
func summarizeAtomicCall(p *Pass, sum *pkgSummary, fs *funcSummary, call *ast.CallExpr) {
	for _, arg := range call.Args {
		un, ok := arg.(*ast.UnaryExpr)
		if !ok || un.Op != token.AND {
			continue
		}
		sel, ok := un.X.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		key, v, ok := fieldOf(p, sel)
		if !ok {
			continue
		}
		sum.atomicNodes[sel] = true
		fs.atomicFields[key] = append(fs.atomicFields[key], sel.Pos())
		sum.atomicFields[key] = append(sum.atomicFields[key], sel.Pos())
		sum.fieldObjs[key] = v
	}
}

// summarizeEscapes marks parameters that are referenced anywhere other
// than as a .Stop() receiver: invoked, returned, assigned, passed as
// arguments, captured in composite literals. Escaped parameters are
// treated as "used, fate unknown" by the analyzers.
func summarizeEscapes(p *Pass, fs *funcSummary, paramObjs map[types.Object]int, body *ast.BlockStmt) {
	skip := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fun, ok := call.Fun.(*ast.SelectorExpr); ok && fun.Sel.Name == "Stop" {
			if id, ok := fun.X.(*ast.Ident); ok {
				skip[id] = true
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || skip[id] {
			return true
		}
		if i, ok := paramObjs[p.Info.Uses[id]]; ok {
			u := fs.params[i]
			u.escapes = true
			fs.params[i] = u
		}
		return true
	})
}

// mutexOpNames classifies the sync mutex method set.
var mutexOpNames = map[string]lockOp{
	"Lock":     {acquire: true},
	"RLock":    {acquire: true, read: true},
	"TryLock":  {acquire: true},
	"TryRLock": {acquire: true, read: true},
	"Unlock":   {},
	"RUnlock":  {read: true},
}

// mutexOp reports whether sel is a method call on a sync.Mutex,
// sync.RWMutex, or sync.Locker, and which operation it is.
func mutexOp(p *Pass, sel *ast.SelectorExpr) (lockOp, bool) {
	op, named := mutexOpNames[sel.Sel.Name]
	if !named {
		return lockOp{}, false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return lockOp{}, false
	}
	recv := sig.Recv().Type().String()
	if !strings.Contains(recv, "sync.Mutex") && !strings.Contains(recv, "sync.RWMutex") && !strings.Contains(recv, "sync.Locker") {
		return lockOp{}, false
	}
	return op, true
}

// lockClass canonicalizes the receiver expression of a mutex operation
// to a package-wide identity. Field chains rooted at a variable are
// keyed by the variable's named type plus the field path ("MuxClient.mu",
// "Server.stats"), so every instance of a type shares one lock class —
// the standard coarsening for lock-order analysis. Package-level mutex
// variables are keyed by name. Local mutex variables and anything
// unresolvable return ok=false and stay out of the lock graph.
func lockClass(p *Pass, expr ast.Expr) (string, bool) {
	switch e := expr.(type) {
	case *ast.Ident:
		obj := p.Info.Uses[e]
		if v, ok := obj.(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Name(), true // package-level mutex
			}
			// A receiver or parameter that IS the mutex: key by its type
			// when named (e.g. a *sync.Mutex passed around), else skip.
			if tn := namedTypeName(v.Type()); tn != "" && tn != "Mutex" && tn != "RWMutex" {
				return tn, true
			}
		}
		return "", false
	case *ast.SelectorExpr:
		// Walk to the root, collecting the field path.
		var path []string
		cur := expr
		for {
			sel, ok := cur.(*ast.SelectorExpr)
			if !ok {
				break
			}
			path = append([]string{sel.Sel.Name}, path...)
			cur = sel.X
		}
		root, ok := cur.(*ast.Ident)
		if !ok {
			return "", false
		}
		v, ok := p.Info.Uses[root].(*types.Var)
		if !ok {
			return "", false
		}
		if tn := namedTypeName(v.Type()); tn != "" {
			return tn + "." + strings.Join(path, "."), true
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Name() + "." + strings.Join(path, "."), true
		}
		return "", false
	case *ast.ParenExpr:
		return lockClass(p, e.X)
	}
	return "", false
}

// namedTypeName returns the name of the named type behind t (through
// pointers), or "".
func namedTypeName(t types.Type) string {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt.Obj().Name()
		default:
			return ""
		}
	}
}

// fieldOf resolves a selector to the struct field it names, keyed by
// the defining named type.
func fieldOf(p *Pass, sel *ast.SelectorExpr) (fieldKey, *types.Var, bool) {
	s, ok := p.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return fieldKey{}, nil, false
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !v.IsField() {
		return fieldKey{}, nil, false
	}
	tn := namedTypeName(s.Recv())
	if tn == "" {
		return fieldKey{}, nil, false
	}
	return fieldKey{typeName: tn, field: v.Name()}, v, true
}

// sortedKeys returns the map's keys in sorted order, for deterministic
// reporting.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
