package lint

import (
	"go/ast"
	"go/types"
)

// TimerLeak enforces timer and ticker hygiene in the serving path:
//
//   - time.After inside a for/range loop allocates a new runtime timer
//     every iteration that nothing can stop; under a request loop this
//     is an unbounded-growth bug (the timers only die when they fire,
//     which for long timeouts means arbitrarily many live at once).
//     Hoist a time.NewTimer out of the loop and Reset it, or use a
//     context deadline.
//   - time.Tick's ticker can never be stopped, so in a library package
//     it is a guaranteed leak; use time.NewTicker with a defer Stop.
//   - a *time.Timer / *time.Ticker from time.NewTimer/NewTicker must
//     be stopped in the function that created it (Stop call or defer),
//     or escape to an owner: returned, stored, or passed on. Passing
//     it to a same-package function reads that callee's body (one call
//     level): a callee that never uses the parameter does not count as
//     an owner.
//
// The Stop requirement is an existence check, not a path-sensitive
// one: a timer stopped on one path and returned on another is the
// caller's contract to get right, and flagging it would false-positive
// the hand-off idiom.
type TimerLeak struct{}

// Name implements Analyzer.
func (*TimerLeak) Name() string { return "timerleak" }

// Doc implements Analyzer.
func (*TimerLeak) Doc() string {
	return "no time.After in loops; NewTimer/NewTicker must be stopped or handed off"
}

// Run implements Analyzer.
func (a *TimerLeak) Run(p *Pass) {
	isMain := p.Pkg != nil && p.Pkg.Name() == "main"
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				a.checkLoop(p, n.Body)
			case *ast.RangeStmt:
				a.checkLoop(p, n.Body)
			case *ast.CallExpr:
				if !isMain && isTimeFunc(p, n, "Tick") {
					p.Reportf(n.Pos(), "time.Tick's ticker can never be stopped and leaks in a library package; use time.NewTicker with a defer Stop")
				}
			case *ast.FuncDecl:
				if n.Body != nil {
					a.checkTimers(p, n.Body)
				}
			case *ast.FuncLit:
				a.checkTimers(p, n.Body)
			}
			return true
		})
	}
}

// checkLoop flags time.After calls lexically inside a loop body (not
// inside nested function literals, which have their own dynamic
// extent).
func (a *TimerLeak) checkLoop(p *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isTimeFunc(p, call, "After") {
			p.Reportf(call.Pos(), "time.After inside a loop starts an unstoppable timer every iteration; hoist a time.NewTimer and Reset it, or derive a context deadline")
		}
		return true
	})
}

// checkTimers verifies every time.NewTimer/NewTicker assigned directly
// in body is stopped or escapes.
func (a *TimerLeak) checkTimers(p *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			return false
		}
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 || len(assign.Lhs) != 1 {
			return true
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		var what string
		switch {
		case isTimeFunc(p, call, "NewTimer"):
			what = "time.NewTimer"
		case isTimeFunc(p, call, "NewTicker"):
			what = "time.NewTicker"
		default:
			return true
		}
		id, ok := assign.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		if id.Name == "_" {
			p.Reportf(id.Pos(), "the %s result is discarded, so its timer can never be stopped", what)
			return true
		}
		obj := p.Info.Defs[id]
		if obj == nil {
			obj = p.Info.Uses[id]
		}
		if obj == nil {
			return true
		}
		if !timerHandled(p, body, obj) {
			p.Reportf(id.Pos(), "%s result %s is never stopped in this function and never escapes; defer %s.Stop() so the timer is released on every path", what, id.Name, id.Name)
		}
		return true
	})
}

// timerHandled reports whether the timer object is stopped or escapes
// ownership somewhere in body.
func timerHandled(p *Pass, body *ast.BlockStmt, obj types.Object) bool {
	handled := false
	ast.Inspect(body, func(n ast.Node) bool {
		if handled {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			// t.Stop() / t.Reset() on the tracked object. Reset counts:
			// the reset idiom keeps one long-lived timer alive on
			// purpose.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Stop" || sel.Sel.Name == "Reset") {
				if identIs(p, sel.X, obj) {
					handled = true
					return false
				}
			}
			// Passed to a callee: unknown callees are conservative
			// owners; same-package callees answer from their body.
			for i, arg := range n.Args {
				if identIs(p, arg, obj) && passConsumes(p, n, i) {
					handled = true
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if identIs(p, res, obj) {
					handled = true
					return false
				}
			}
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				if identIs(p, rhs, obj) {
					handled = true // re-assigned: ownership moved
					return false
				}
			}
			// Stored through a selector or index on the LHS is already
			// covered by the rhs check of the receiving assignment when
			// obj is on the RHS; obj on the LHS root (t.C = …) is not an
			// escape.
		case *ast.KeyValueExpr:
			if identIs(p, n.Value, obj) {
				handled = true
				return false
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if identIs(p, el, obj) {
					handled = true
					return false
				}
			}
		case *ast.UnaryExpr:
			// &t: address escapes.
			if identIs(p, n.X, obj) {
				handled = true
				return false
			}
		}
		return true
	})
	return handled
}

// passConsumes decides whether passing a value as argument i of call
// counts as handing it on. Unknown callees are conservative "yes"; a
// same-package callee must use the parameter somewhere in its body —
// stop it, or pass, store or return it.
func passConsumes(p *Pass, call *ast.CallExpr, i int) bool {
	fd := p.callee(call)
	if fd == nil {
		return true // cannot see the callee: assume it uses the value
	}
	// Map argument index to parameter; methods called as m.f(a) line up
	// directly, variadic tails collapse onto the last parameter.
	var params []*ast.Ident
	for _, f := range fd.Type.Params.List {
		if len(f.Names) == 0 {
			params = append(params, nil)
		}
		params = append(params, f.Names...)
	}
	if len(params) == 0 {
		return false
	}
	param := p.Info.Defs[params[min(i, len(params)-1)]]
	if param == nil {
		return false // unnamed: the body cannot reach it
	}
	used := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == param {
			used = true
		}
		return !used
	})
	return used
}

func identIs(p *Pass, e ast.Expr, obj types.Object) bool {
	id, ok := e.(*ast.Ident)
	return ok && p.Info.Uses[id] == obj
}

// isTimeFunc reports whether call is time.<name>, resolved through type
// information.
func isTimeFunc(p *Pass, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "time"
}
