package lint

import "go/ast"

// GoLeak requires every goroutine launched in a library package to carry
// a visible completion signal — a WaitGroup/Context Done, a channel
// send, or a close — so the pipeline cannot silently accumulate leaked
// goroutines under production load. Package main (the CLIs and examples,
// whose goroutines die with the process) is exempt.
//
// Two goroutine shapes are understood. A func-literal body is scanned
// directly. A method or function of the same package launched by name —
// `go s.serveRequest(…)`, the transport server's per-request dispatch
// idiom — is resolved to its declaration, whose body must carry the
// completion signal. Anything the engine cannot see into (another
// package's function, a func value) is still reported, because an
// invisible body is an unauditable one.
type GoLeak struct{}

// Name implements Analyzer.
func (*GoLeak) Name() string { return "goleak" }

// Doc implements Analyzer.
func (*GoLeak) Doc() string {
	return "library goroutines must be joined via WaitGroup, channel, or context"
}

// Run implements Analyzer.
func (a *GoLeak) Run(p *Pass) {
	if p.Pkg != nil && p.Pkg.Name() == "main" {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
				if !hasCompletionSignal(lit.Body) {
					p.Reportf(g.Pos(), "goroutine has no visible completion signal (WaitGroup Done, channel send, or close); a leak here accumulates under load")
				}
				return true
			}
			// A method-value goroutine (`go s.serveRequest(…)`): the named
			// callee's body is the goroutine body.
			if fd := p.callee(g.Call); fd != nil {
				if !hasCompletionSignal(fd.Body) {
					p.Reportf(g.Pos(), "goroutine %s has no visible completion signal in its body (WaitGroup Done, channel send, or close); a leak here accumulates under load", fd.Name.Name)
				}
				return true
			}
			p.Reportf(g.Pos(), "goroutine body is not visible here; launch a same-package function or a func literal with an explicit completion signal (WaitGroup Done, channel send, or close)")
			return true
		})
	}
}

// hasCompletionSignal scans a goroutine body for evidence it is joined:
// a `.Done()` call (sync.WaitGroup or context.Context), a channel send,
// or a close().
func hasCompletionSignal(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.SelectorExpr:
				if fun.Sel.Name == "Done" {
					found = true
				}
			case *ast.Ident:
				if fun.Name == "close" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
