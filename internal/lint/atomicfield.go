package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicField enforces typed atomics for shared struct fields: a field
// touched through the function-form sync/atomic API
// (atomic.AddInt64(&x.f, …), atomic.LoadUint64(&x.f), …) is reported.
// Declared as atomic.Int64 and friends instead, the field's method set
// is the only access path, so the invariant the function form leaves to
// discipline — every access atomic, no plain read that races or tears a
// 64-bit word on 32-bit targets — is enforced by the compiler. The
// function form on a local or a slice element is not a field and is
// left alone.
type AtomicField struct{}

// Name implements Analyzer.
func (*AtomicField) Name() string { return "atomicfield" }

// Doc implements Analyzer.
func (*AtomicField) Doc() string {
	return "struct fields shared through sync/atomic are typed atomics"
}

// Run implements Analyzer.
func (a *AtomicField) Run(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fun, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if path, ok := importedPackage(p, fun.X); !ok || path != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				addr, ok := arg.(*ast.UnaryExpr)
				if !ok || addr.Op != token.AND {
					continue
				}
				sel, ok := addr.X.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if s, ok := p.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
					p.Reportf(call.Pos(), "atomic.%s on field %s: make the field a typed atomic (atomic.%s) so no plain access can compile",
						fun.Sel.Name, types.ExprString(sel), typedAtomic(s.Type()))
				}
			}
			return true
		})
	}
}

// typedAtomic names the sync/atomic type that replaces a field of type
// t: int64 → Int64, uintptr → Uintptr, unsafe.Pointer → Pointer.
func typedAtomic(t types.Type) string {
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() != types.UnsafePointer {
		return strings.ToUpper(b.Name()[:1]) + b.Name()[1:]
	}
	return "Pointer"
}
