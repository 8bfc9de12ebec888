package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Module is a lazily loaded view of one Go module: parsed (non-test)
// files and best-effort type information for every package, produced
// with nothing but the standard library. Test files are out of scope by
// design — the invariants the analyzers enforce target production code,
// and tests routinely (and legitimately) read clocks or discard errors.
//
// Type checking is tolerant: module-local imports resolve through the
// module itself, standard-library imports through the go/importer source
// importer, and anything unresolvable degrades to a placeholder package
// plus a recorded soft error rather than failing the load. Analyzers
// must treat missing type info as "unknown" and stay silent, so a broken
// import can hide a diagnostic but never invent one.
type Module struct {
	Root string // absolute directory containing go.mod
	Path string // module path declared in go.mod

	Fset *token.FileSet

	mu   sync.Mutex
	pkgs map[string]*Package // by import path
	std  types.Importer
	soft []error // import failures downgraded to placeholders
}

// Package is one loaded package of a Module.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Sources    map[string][]byte // file name → raw source, for directives
	Types      *types.Package
	Info       *types.Info
	TypeErrors []error

	checking bool
}

// FindModuleRoot walks from dir upwards to the first directory holding a
// go.mod file.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found in or above %s", dir)
		}
		dir = parent
	}
}

// LoadModule prepares a Module rooted at the directory holding go.mod.
// Packages are parsed and type-checked on first use.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: reading go.mod: %w", err)
	}
	path := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			path = strings.Trim(strings.TrimSpace(rest), `"`)
			break
		}
	}
	if path == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	m := &Module{
		Root: root,
		Path: path,
		Fset: token.NewFileSet(),
		pkgs: map[string]*Package{},
	}
	// The "source" importer type-checks standard-library dependencies
	// from GOROOT source, so the engine needs no compiler export data.
	m.std = importer.ForCompiler(m.Fset, "source", nil)
	return m, nil
}

// PackageDirs expands package patterns relative to the module root.
// Supported patterns: "./..." (every package in the module), "dir/..."
// (every package under dir) and plain directories. testdata, hidden and
// underscore-prefixed directories are skipped, as the go tool does.
func (m *Module) PackageDirs(patterns ...string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		pat = strings.TrimPrefix(pat, "./")
		recursive := false
		if pat == "..." {
			pat, recursive = "", true
		} else if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			pat, recursive = rest, true
		}
		base := filepath.Join(m.Root, filepath.FromSlash(pat))
		if !recursive {
			if hasGoFiles(base) {
				add(base)
				continue
			}
			return nil, fmt.Errorf("lint: no Go files in %s", base)
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// ImportPathForDir maps a directory inside the module to its import path.
func (m *Module) ImportPathForDir(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(m.Root, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return m.Path, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, m.Root)
	}
	return m.Path + "/" + filepath.ToSlash(rel), nil
}

// PackageByDir loads (parsing + type-checking on first use) the package
// in dir.
func (m *Module) PackageByDir(dir string) (*Package, error) {
	path, err := m.ImportPathForDir(dir)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.load(path)
}

// load parses and type-checks the package with the given module-local
// import path. Callers must hold m.mu.
func (m *Module) load(path string) (*Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	rel := strings.TrimPrefix(path, m.Path)
	dir := filepath.Join(m.Root, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	pkg := &Package{ImportPath: path, Dir: dir, Sources: map[string][]byte{}}
	m.pkgs[path] = pkg
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Files excluded by a build constraint (a _GOARCH suffix or a
		// //go:build line, e.g. the tensor package's per-architecture
		// kernel dispatch) would redeclare what their twins declare.
		if match, err := build.Default.MatchFile(dir, name); err == nil && !match {
			continue
		}
		full := filepath.Join(dir, name)
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		f, err := parser.ParseFile(m.Fset, full, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", full, err)
		}
		pkg.Sources[full] = src
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	m.check(pkg)
	return pkg, nil
}

// check runs the go/types checker over the parsed files, tolerating
// errors so analyzers get best-effort type information.
func (m *Module) check(pkg *Package) {
	pkg.checking = true
	defer func() { pkg.checking = false }()
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			return m.importPkg(path)
		}),
		Error: func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check never returns a nil package; errors are collected above.
	tpkg, _ := conf.Check(pkg.ImportPath, m.Fset, pkg.Files, info)
	pkg.Types = tpkg
	pkg.Info = info
}

// importPkg resolves one import for the type checker: module-local
// packages recursively through the module, everything else through the
// standard-library source importer, degrading to an empty placeholder
// package when resolution fails.
func (m *Module) importPkg(path string) (*types.Package, error) {
	if path == m.Path || strings.HasPrefix(path, m.Path+"/") {
		if pkg, ok := m.pkgs[path]; ok {
			if pkg.checking || pkg.Types == nil {
				return nil, fmt.Errorf("lint: import cycle through %s", path)
			}
			return pkg.Types, nil
		}
		pkg, err := m.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	tpkg, err := m.std.Import(path)
	if err == nil {
		return tpkg, nil
	}
	m.soft = append(m.soft, fmt.Errorf("lint: importing %s: %w", path, err))
	elems := strings.Split(path, "/")
	placeholder := types.NewPackage(path, elems[len(elems)-1])
	placeholder.MarkComplete()
	return placeholder, nil
}

// SoftErrors returns import failures that were downgraded to placeholder
// packages. They weaken analysis (diagnostics may be missed, never
// invented) and are surfaced by the driver in verbose mode.
func (m *Module) SoftErrors() []error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]error(nil), m.soft...)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
