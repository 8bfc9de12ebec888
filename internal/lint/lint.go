// Package lint is dcSR's in-tree static-analysis engine: a small
// analyzer framework on go/parser + go/ast + go/types (standard library
// only, no golang.org/x/tools) plus the repo-specific analyzers that
// turn the pipeline's determinism, metrics, error-discipline and
// concurrency conventions into machine-checked invariants.
//
// The analyzers (catalogued with examples in docs/LINTING.md):
//
//   - metricnames — metric names passed to obs constructors are
//     compile-time snake_case constants documented in docs/OPERATIONS.md
//   - nodeterm — no wall-clock reads, global math/rand, or map-ordered
//     output in the bit-deterministic packages
//   - errcheck — no silently discarded errors from Close/Flush/Write or
//     any internal/transport call
//   - goleak — goroutines in library packages carry a visible
//     completion signal (WaitGroup, channel, close)
//   - ctxcheck — context.Context is always the first parameter and is
//     never stored in a struct field
//   - lockorder — mutexes are acquired in one consistent order
//     module-wide per package (a cycle in the acquisition graph is a
//     latent deadlock) and every Lock is released on every return path
//   - atomicfield — a struct field shared through sync/atomic is a
//     typed atomic, never handed to the function-form API
//   - errcmp — sentinel and typed errors are matched with
//     errors.Is/errors.As, never == / != or type assertions
//   - timerleak — no time.After in loops; NewTimer/NewTicker results
//     are stopped or handed off
//
// The nil-receiver contract of the obs handles is not an analyzer: a
// test in internal/obs calls every exported handle method on nil.
//
// Analyzers that look one call deep (goleak, lockorder, timerleak) read
// the same-package callee's declaration where they need it, through
// Pass.callee; there is no precomputed summary layer.
//
// The Runner analyzes packages one after another: parsing and
// type-checking are all but the whole run (the nine analyzers are about
// 2 % of a cold ./...), so there is no worker pool and no diagnostic
// cache. Output is sorted by file, line, column, check, message.
//
// A diagnostic is suppressed — never silenced — with a reasoned
// directive on or directly above the offending line:
//
//	//lint:allow <check> <reason>
//
// Malformed directives (unknown check, missing reason) are themselves
// diagnostics, so every suppression in the tree carries an auditable
// justification. The gate is `go test` (TestLintRepo) and `make lint`
// (cmd/dcsr-lint), which run all analyzers over the full module.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Col, d.Message, d.Check)
}

// Analyzer is one lint pass over a single package.
type Analyzer interface {
	// Name is the identifier used in diagnostics and //lint:allow
	// directives.
	Name() string
	// Doc is a one-line description of the enforced invariant.
	Doc() string
	// Run inspects the package behind p and reports findings.
	Run(p *Pass)
}

// Pass hands one type-checked package to an analyzer.
type Pass struct {
	Fset *token.FileSet
	// Path is the package's import path.
	Path string
	// Files are the package's parsed non-test files.
	Files []*ast.File
	// Pkg and Info carry best-effort type information; entries may be
	// missing when type checking was degraded, and analyzers must stay
	// silent rather than guess.
	Pkg  *types.Package
	Info *types.Info

	check string
	diags *[]Diagnostic
	// decls indexes the package's function declarations by object,
	// built once per package for callee.
	decls map[*types.Func]*ast.FuncDecl
}

// callee returns the declaration of the same-package function or method
// that call invokes by name, or nil when its body is out of sight
// (another package, a func value, missing type information).
func (p *Pass) callee(call *ast.CallExpr) *ast.FuncDecl {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return p.decls[fn]
}

// Reportf records a diagnostic for the running analyzer at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// Runner executes a set of analyzers over module packages and applies
// //lint:allow suppression.
type Runner struct {
	Module    *Module
	Analyzers []Analyzer
}

// NewRunner loads the module rooted at (or above) dir and configures the
// default analyzer set for this repository.
func NewRunner(dir string) (*Runner, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	m, err := LoadModule(root)
	if err != nil {
		return nil, err
	}
	as, err := DefaultAnalyzers(m)
	if err != nil {
		return nil, err
	}
	return &Runner{Module: m, Analyzers: as}, nil
}

// Lint runs every analyzer over the packages matched by patterns
// (default "./...") and returns the unsuppressed diagnostics sorted by
// position. Directive problems are reported under the pseudo-check
// "directive" and cannot be suppressed.
func (r *Runner) Lint(patterns ...string) ([]Diagnostic, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := r.Module.PackageDirs(patterns...)
	if err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, a := range r.Analyzers {
		known[a.Name()] = true
	}
	var out []Diagnostic
	for _, dir := range dirs {
		pkg, err := r.Module.PackageByDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, r.lintPackage(pkg, known)...)
	}
	sortDiagnostics(out)
	return out, nil
}

func (r *Runner) lintPackage(pkg *Package, known map[string]bool) []Diagnostic {
	var raw []Diagnostic
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	for _, a := range r.Analyzers {
		p := &Pass{
			Fset:  r.Module.Fset,
			Path:  pkg.ImportPath,
			Files: pkg.Files,
			Pkg:   pkg.Types,
			Info:  pkg.Info,
			check: a.Name(),
			diags: &raw,
			decls: decls,
		}
		a.Run(p)
	}
	dirs, dirDiags := collectDirectives(r.Module.Fset, pkg, known)
	var out []Diagnostic
	for _, d := range raw {
		if !dirs.allows(d) {
			out = append(out, d)
		}
	}
	return append(out, dirDiags...)
}

// sortDiagnostics establishes the engine's canonical output order:
// file, line, column, check, message. The message tiebreak makes the
// order total, so repeated runs are byte-identical.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// DefaultAnalyzers builds the repository's analyzer set, wired to the
// module's docs/OPERATIONS.md metric table.
func DefaultAnalyzers(m *Module) ([]Analyzer, error) {
	docs, err := DocMetricNames(m.Root)
	if err != nil {
		return nil, err
	}
	return []Analyzer{
		&MetricNames{Docs: docs},
		&NoDeterm{Pkgs: deterministicPkgs(m.Path)},
		&ErrCheck{Methods: map[string]bool{"Close": true, "Flush": true, "Write": true},
			PkgPaths: map[string]bool{m.Path + "/internal/transport": true}},
		&GoLeak{},
		&CtxCheck{},
		&LockOrder{},
		&AtomicField{},
		&ErrCmp{},
		&TimerLeak{},
	}, nil
}

// deterministicPkgs lists the packages whose output must be
// bit-reproducible for the clustering/training/fault-sweep experiments
// to be trustworthy (see docs/LINTING.md).
func deterministicPkgs(modPath string) map[string]bool {
	set := map[string]bool{}
	for _, p := range []string{
		"internal/cluster", "internal/vae", "internal/edsr", "internal/nn",
		"internal/tensor", "internal/codec", "internal/video", "internal/splitter",
		"internal/experiments",
	} {
		set[modPath+"/"+p] = true
	}
	return set
}

// Lint is the package-level convenience entry point: load the module
// containing dir, run the default analyzers over all of it, and return
// the unsuppressed diagnostics.
func Lint(dir string) ([]Diagnostic, error) {
	r, err := NewRunner(dir)
	if err != nil {
		return nil, err
	}
	return r.Lint("./...")
}
