package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder enforces two mutex invariants over a package's lock graph:
//
//  1. Consistent acquisition order. Every "acquire B while holding A"
//     observed anywhere in the package — directly, or one call level
//     deep through a same-package callee's body — becomes an edge
//     A→B in the package lock graph. A cycle in that graph means two
//     code paths take the same pair of lock classes in opposite
//     orders: the classic ABBA deadlock, which no test reliably
//     catches because it needs the losing interleaving.
//
//  2. Release on every return path. A Lock with no matching Unlock or
//     defer Unlock before some return (or the end of the function)
//     leaves the lock class held forever on that path.
//
// Lock identity is coarsened to the lock *class* — the named type
// owning the mutex field plus the field path ("Client.mu",
// "Server.stats"), or the variable name for package-level mutexes — so
// all instances of a type share one graph node. That is the standard
// precision trade for lock-order analysis: it can conflate two
// instances of the same type (suppress with //lint:allow lockorder and
// a reason when a hierarchy between instances is by design), but it
// never needs alias analysis.
//
// The walker is a small branch-sensitive abstract interpreter: if/else,
// switch, select and loop bodies are walked with copies of the held
// set and merged by intersection (a lock is "held" after a join only
// if every surviving branch holds it), so a conditional unlock is
// understood and a conditional acquire never false-positives. Function
// literals (goroutine bodies, deferred closures) are walked as
// separate functions with an empty held set. A same-package callee is
// read flow-insensitively, in source order: the classes it acquires,
// and the ones it releases without acquiring first (the unlock-helper
// idiom, which releases the caller's lock).
type LockOrder struct{}

// Name implements Analyzer.
func (*LockOrder) Name() string { return "lockorder" }

// Doc implements Analyzer.
func (*LockOrder) Doc() string {
	return "mutexes are acquired in one consistent order and released on every return path"
}

// lockEdge is one observed "acquire to while holding from" with its
// earliest witness site.
type lockEdge struct {
	from, to string
	pos      token.Pos
	// via names the same-package callee that contributed the edge, ""
	// for a direct acquisition.
	via string
}

// Run implements Analyzer.
func (a *LockOrder) Run(p *Pass) {
	w := &lockWalker{p: p, edges: map[string]lockEdge{}, callees: map[*ast.FuncDecl]*calleeLocks{}}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w.walkFunc(fd.Body)
		}
	}
	w.reportCycles()
}

// heldLock is the walker's per-lock-class state.
type heldLock struct {
	pos      token.Pos // acquisition site
	deferred bool      // a defer Unlock covers every later return
	read     bool
}

type heldSet map[string]heldLock

func (h heldSet) clone() heldSet {
	out := make(heldSet, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// lockWalker carries the package-wide edge set and reports leaks as it
// walks.
type lockWalker struct {
	p     *Pass
	edges map[string]lockEdge // "from\x00to" → earliest witness
	// reported dedupes leak findings by acquisition site.
	reported map[token.Pos]bool
	// callees memoises what each same-package callee does to its
	// caller's locks.
	callees map[*ast.FuncDecl]*calleeLocks
}

// calleeLocks is what a call to a same-package function does to the
// caller's held set, read from the callee's body in source order.
type calleeLocks struct {
	name     string
	acquires []string // lock classes it acquires
	releases []string // classes it releases without acquiring them first
}

// calleeLocks reads call's same-package callee once per walk; nil when
// the body is out of sight.
func (w *lockWalker) calleeLocks(call *ast.CallExpr) *calleeLocks {
	fd := w.p.callee(call)
	if fd == nil {
		return nil
	}
	if cl, ok := w.callees[fd]; ok {
		return cl
	}
	cl := &calleeLocks{name: fd.Name.Name}
	acquired := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := c.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if op, ok := mutexOp(w.p, sel); ok {
			if key, ok := lockClass(w.p, sel.X); ok {
				if op.acquire {
					cl.acquires = append(cl.acquires, key)
					acquired[key] = true
				} else if !acquired[key] {
					cl.releases = append(cl.releases, key)
				}
			}
		}
		return true
	})
	w.callees[fd] = cl
	return cl
}

func (w *lockWalker) walkFunc(body *ast.BlockStmt) {
	if w.reported == nil {
		w.reported = map[token.Pos]bool{}
	}
	held := heldSet{}
	terminated := w.walkStmts(body.List, held)
	if !terminated {
		w.checkLeaks(held, body.Rbrace, "the end of the function")
	}
}

// walkStmts interprets a statement list against held, returning whether
// the list definitely terminates (returns) on every path through it.
func (w *lockWalker) walkStmts(stmts []ast.Stmt, held heldSet) bool {
	for _, s := range stmts {
		if w.walkStmt(s, held) {
			return true
		}
	}
	return false
}

// walkStmt interprets one statement. It returns true when the statement
// terminates the enclosing path (return, or all branches return).
func (w *lockWalker) walkStmt(s ast.Stmt, held heldSet) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.scanExpr(s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scanExpr(e, held)
		}
	case *ast.DeclStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				w.applyCall(call, held)
			}
			return true
		})
	case *ast.DeferStmt:
		w.applyDefer(s, held)
	case *ast.GoStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.walkFunc(lit.Body)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scanExpr(e, held)
		}
		w.checkLeaks(held, s.Pos(), "this return")
		return true
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		w.scanExpr(s.Cond, held)
		thenHeld := held.clone()
		thenTerm := w.walkStmts(s.Body.List, thenHeld)
		elseHeld := held.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.walkStmt(s.Else, elseHeld)
		}
		mergeInto(held, thenHeld, thenTerm, elseHeld, elseTerm)
		return thenTerm && elseTerm
	case *ast.BlockStmt:
		return w.walkStmts(s.List, held)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.walkBranches(s, held)
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond, held)
		}
		body := held.clone()
		w.walkStmts(s.Body.List, body)
		// The loop may run zero times; keep only locks held on both the
		// skip and the once-through path.
		mergeInto(held, body, false, held.clone(), false)
	case *ast.RangeStmt:
		w.scanExpr(s.X, held)
		body := held.clone()
		w.walkStmts(s.Body.List, body)
		mergeInto(held, body, false, held.clone(), false)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)
	case *ast.BranchStmt:
		// break/continue/goto: stop interpreting this path without a
		// leak check (the target re-joins flow we do not model).
		return true
	case *ast.SendStmt:
		w.scanExpr(s.Value, held)
	}
	return false
}

// walkBranches handles switch/type-switch/select: each clause runs
// against a copy of held, and the results merge by intersection.
func (w *lockWalker) walkBranches(s ast.Stmt, held heldSet) bool {
	var clauses []ast.Stmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag, held)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	allTerm := len(clauses) > 0
	var surviving []heldSet
	for _, c := range clauses {
		var body []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			body = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				w.walkStmt(c.Comm, held.clone())
			}
			body = c.Body
		}
		ch := held.clone()
		if w.walkStmts(body, ch) {
			continue
		}
		allTerm = false
		surviving = append(surviving, ch)
	}
	if allTerm {
		return true
	}
	// held becomes the intersection of the surviving clause states: a
	// lock is held after the statement only if every live path holds it.
	for k := range held {
		delete(held, k)
	}
	if len(surviving) == 0 {
		return false
	}
	for key, hl := range surviving[0] {
		inAll := true
		for _, sv := range surviving[1:] {
			o, ok := sv[key]
			if !ok {
				inAll = false
				break
			}
			if o.deferred {
				hl.deferred = true
			}
		}
		if inAll {
			held[key] = hl
		}
	}
	return false
}

// mergeInto replaces held with the intersection of the two branch
// states (terminated branches drop out).
func mergeInto(held heldSet, a heldSet, aTerm bool, b heldSet, bTerm bool) {
	var live []heldSet
	if !aTerm {
		live = append(live, a)
	}
	if !bTerm {
		live = append(live, b)
	}
	for k := range held {
		delete(held, k)
	}
	if len(live) == 0 {
		return
	}
	for key, hl := range live[0] {
		inAll := true
		for _, other := range live[1:] {
			o, ok := other[key]
			if !ok {
				inAll = false
				break
			}
			if o.deferred {
				hl.deferred = true
			}
		}
		if inAll {
			held[key] = hl
		}
	}
}

// scanExpr finds lock-relevant calls inside an expression (conditions,
// arguments, assignments) in source order, without descending into
// function literals.
func (w *lockWalker) scanExpr(e ast.Expr, held heldSet) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			// Analyzed separately with an empty held set when launched;
			// deferred closures are handled by applyDefer.
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			w.applyCall(call, held)
		}
		return true
	})
}

// applyCall updates held for one call: mutex operations directly, and
// same-package callees through their bodies (one call level).
func (w *lockWalker) applyCall(call *ast.CallExpr, held heldSet) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if op, ok := mutexOp(w.p, sel); ok {
			key, ok := lockClass(w.p, sel.X)
			if !ok {
				return
			}
			if op.acquire {
				w.recordEdges(held, key, call.Pos(), "")
				if _, already := held[key]; !already {
					held[key] = heldLock{pos: call.Pos(), read: op.read}
				}
			} else {
				delete(held, key)
			}
			return
		}
	}
	cl := w.calleeLocks(call)
	if cl == nil {
		return
	}
	for _, key := range cl.acquires {
		w.recordEdges(held, key, call.Pos(), cl.name)
	}
	// A helper that releases a lock it did not acquire is releasing
	// ours (the unlock-helper idiom).
	for _, key := range cl.releases {
		delete(held, key)
	}
}

// applyDefer handles defer statements: a deferred Unlock covers every
// later return; a deferred closure's unlocks count the same way; a
// deferred Lock (rare, meaningless) is ignored.
func (w *lockWalker) applyDefer(s *ast.DeferStmt, held heldSet) {
	markDeferred := func(key string) {
		if hl, ok := held[key]; ok {
			hl.deferred = true
			held[key] = hl
		}
	}
	if sel, ok := s.Call.Fun.(*ast.SelectorExpr); ok {
		if op, ok := mutexOp(w.p, sel); ok && !op.acquire {
			if key, ok := lockClass(w.p, sel.X); ok {
				markDeferred(key)
			}
			return
		}
	}
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		// Deferred closures release whatever they unlock.
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if op, ok := mutexOp(w.p, sel); ok && !op.acquire {
					if key, ok := lockClass(w.p, sel.X); ok {
						markDeferred(key)
					}
				}
			}
			return true
		})
		return
	}
	// Deferred same-package unlock helper.
	if cl := w.calleeLocks(s.Call); cl != nil {
		for _, key := range cl.releases {
			markDeferred(key)
		}
	}
}

// recordEdges adds from→to edges for every currently held lock class.
func (w *lockWalker) recordEdges(held heldSet, to string, pos token.Pos, via string) {
	for from := range held {
		if from == to {
			continue
		}
		ek := from + "\x00" + to
		if old, ok := w.edges[ek]; !ok || pos < old.pos {
			w.edges[ek] = lockEdge{from: from, to: to, pos: pos, via: via}
		}
	}
}

// checkLeaks reports every lock held without a deferred release at an
// exit point.
func (w *lockWalker) checkLeaks(held heldSet, at token.Pos, what string) {
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		hl := held[key]
		if hl.deferred || w.reported[hl.pos] {
			continue
		}
		w.reported[hl.pos] = true
		verb := "Lock"
		if hl.read {
			verb = "RLock"
		}
		w.p.Reportf(hl.pos, "%s of %s is not released on every return path (still held at %s, line %d); unlock before returning or defer the Unlock",
			verb, key, what, w.p.Fset.Position(at).Line)
	}
}

// reportCycles finds cycles in the package lock graph and reports each
// once, deterministically, at the earliest witness site of the cycle's
// edges.
func (w *lockWalker) reportCycles() {
	adj := map[string][]lockEdge{}
	for _, e := range w.edges {
		adj[e.from] = append(adj[e.from], e)
	}
	nodes := make([]string, 0, len(adj))
	for from := range adj {
		nodes = append(nodes, from)
		sort.Slice(adj[from], func(i, j int) bool { return adj[from][i].to < adj[from][j].to })
	}
	sort.Strings(nodes)
	seen := map[string]bool{} // canonical cycle signature → reported
	var stack []lockEdge
	onPath := map[string]bool{}
	var dfs func(node string)
	dfs = func(node string) {
		onPath[node] = true
		for _, e := range adj[node] {
			if onPath[e.to] {
				// Extract the cycle from the stack.
				var cycle []lockEdge
				for i := len(stack) - 1; i >= 0; i-- {
					cycle = append([]lockEdge{stack[i]}, cycle...)
					if stack[i].from == e.to {
						break
					}
				}
				cycle = append(cycle, e)
				w.reportCycle(cycle, seen)
				continue
			}
			stack = append(stack, e)
			dfs(e.to)
			stack = stack[:len(stack)-1]
		}
		onPath[node] = false
	}
	for _, node := range nodes {
		dfs(node)
	}
}

func (w *lockWalker) reportCycle(cycle []lockEdge, seen map[string]bool) {
	// Canonicalize: rotate so the lexicographically smallest node leads.
	names := make([]string, len(cycle))
	for i, e := range cycle {
		names[i] = e.from
	}
	min := 0
	for i := range names {
		if names[i] < names[min] {
			min = i
		}
	}
	rot := append(append([]string{}, names[min:]...), names[:min]...)
	sig := strings.Join(rot, "→")
	if seen[sig] {
		return
	}
	seen[sig] = true
	// Report at the earliest witness position among the cycle's edges.
	witness := cycle[0]
	for _, e := range cycle[1:] {
		if e.pos < witness.pos {
			witness = e
		}
	}
	var parts []string
	for _, e := range cycle {
		site := w.p.Fset.Position(e.pos)
		hop := fmt.Sprintf("%s→%s (%s:%d", e.from, e.to, shortPath(site.Filename), site.Line)
		if e.via != "" {
			hop += " via " + e.via
		}
		hop += ")"
		parts = append(parts, hop)
	}
	w.p.Reportf(witness.pos, "inconsistent lock acquisition order forms a cycle: %s; pick one order for these lock classes or //lint:allow lockorder with the invariant that prevents the deadlock",
		strings.Join(parts, ", "))
}

// lockOp classifies one sync mutex method.
type lockOp struct {
	acquire bool // Lock/RLock/TryLock vs Unlock/RUnlock
	read    bool // RLock/RUnlock
}

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
// keyed by the variable's named type plus the field path ("Client.mu",
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

// shortPath trims the path to its last two elements for readable
// in-message sites (full paths stay on the diagnostic itself).
func shortPath(p string) string {
	parts := strings.Split(p, "/")
	if len(parts) <= 2 {
		return p
	}
	return strings.Join(parts[len(parts)-2:], "/")
}
