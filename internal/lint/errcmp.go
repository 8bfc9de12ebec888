package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ErrCmp enforces the error-matching discipline the fault-tolerance
// stack depends on: sentinel errors (ErrStopped, io.EOF, the
// modelstore not-found) are matched with errors.Is, and typed errors
// (the transport status error carrying the shed retry-after hint) with
// errors.As — never with == / != or a direct type assertion. The
// moment any layer wraps an error with fmt.Errorf("…: %w", err) — and
// the transport and Prepare pipelines do — identity comparison stops
// matching and the caller silently loses the case it was handling:
// retries stop retrying, not-found stops being not-found.
//
// Flagged:
//
//   - err == sentinel / err != sentinel, where sentinel is a
//     package-level error variable (any package's: io.EOF as much as a
//     module-local ErrStopped);
//   - switch err { case sentinel: … } over an error tag;
//   - err.(*SomeError) type assertions against concrete error types
//     (use errors.As); interface assertions (e.g. net.Error) pass.
//
// Comparisons against nil are identity checks, not matching, and are
// always fine.
type ErrCmp struct{}

// Name implements Analyzer.
func (*ErrCmp) Name() string { return "errcmp" }

// Doc implements Analyzer.
func (*ErrCmp) Doc() string {
	return "sentinel and typed errors are matched with errors.Is/errors.As, not == or type assertions"
}

// Run implements Analyzer.
func (a *ErrCmp) Run(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				a.checkBinary(p, n)
			case *ast.SwitchStmt:
				a.checkSwitch(p, n)
			case *ast.TypeAssertExpr:
				a.checkAssert(p, n)
			}
			return true
		})
	}
}

// checkBinary flags == / != between an error-typed operand and a
// package-level error sentinel.
func (a *ErrCmp) checkBinary(p *Pass, cmp *ast.BinaryExpr) {
	if cmp.Op != token.EQL && cmp.Op != token.NEQ {
		return
	}
	if isNilIdent(cmp.X) || isNilIdent(cmp.Y) {
		return
	}
	if !isErrorExpr(p, cmp.X) && !isErrorExpr(p, cmp.Y) {
		return
	}
	sentinel := sentinelName(p, cmp.X)
	if sentinel == "" {
		sentinel = sentinelName(p, cmp.Y)
	}
	if sentinel == "" {
		return // error-to-error identity between locals: out of scope
	}
	verb := "errors.Is(err, " + sentinel + ")"
	if cmp.Op == token.NEQ {
		verb = "!" + verb
	}
	p.Reportf(cmp.OpPos, "error compared with %s against sentinel %s; use %s so wrapped errors still match", cmp.Op, sentinel, verb)
}

// checkSwitch flags `switch err { case sentinel: }` over an error tag.
func (a *ErrCmp) checkSwitch(p *Pass, sw *ast.SwitchStmt) {
	if sw.Tag == nil || !isErrorExpr(p, sw.Tag) {
		return
	}
	for _, c := range sw.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if isNilIdent(e) {
				continue
			}
			if name := sentinelName(p, e); name != "" {
				p.Reportf(e.Pos(), "switch over an error value matches sentinel %s by identity; use errors.Is in an if/else chain so wrapped errors still match", name)
			}
		}
	}
}

// checkAssert flags err.(*ConcreteError) where the asserted type is a
// concrete error implementation.
func (a *ErrCmp) checkAssert(p *Pass, ta *ast.TypeAssertExpr) {
	if ta.Type == nil { // type switch: handled per-case? keep to assertions
		return
	}
	if !isErrorExpr(p, ta.X) {
		return
	}
	tv, ok := p.Info.Types[ta.Type]
	if !ok || tv.Type == nil {
		return
	}
	if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
		return // asserting to an interface (net.Error) is capability probing
	}
	if !implementsError(tv.Type) {
		return
	}
	p.Reportf(ta.Pos(), "type assertion on an error against %s; use errors.As so wrapped errors still match", types.TypeString(tv.Type, types.RelativeTo(p.Pkg)))
}

// isErrorExpr reports whether e's static type is the error interface.
func isErrorExpr(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return isErrorType(tv.Type)
}

// sentinelName resolves e to a package-level variable of error type and
// returns its printable name ("io.EOF", "ErrStopped"), or "".
func sentinelName(p *Pass, e ast.Expr) string {
	var obj types.Object
	var name string
	switch e := e.(type) {
	case *ast.Ident:
		obj = p.Info.Uses[e]
		name = e.Name
	case *ast.SelectorExpr:
		obj = p.Info.Uses[e.Sel]
		if id, ok := e.X.(*ast.Ident); ok {
			name = id.Name + "." + e.Sel.Name
		} else {
			name = e.Sel.Name
		}
	default:
		return ""
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return ""
	}
	if !isErrorType(v.Type()) {
		return ""
	}
	return name
}

// implementsError reports whether t (or *t) implements the error
// interface.
func implementsError(t types.Type) bool {
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errIface) || types.Implements(types.NewPointer(t), errIface)
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
