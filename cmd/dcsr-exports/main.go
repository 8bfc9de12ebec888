// Command dcsr-exports lists, per package, the exported identifiers of
// internal/ and of the root facade that no non-test file outside their
// own package names: package-level names, methods and struct fields.
// Every package of the module is a possible user, and so is the nested
// bench/ module, which imports the internal packages.
//
// Usage:
//
//	dcsr-exports        # run from inside the module; make exports
//
// It is a report, not a gate. A name reached only through an interface
// (String, Error, a method an interface declares) or only by reflection
// (a JSON field) is listed too and needs judgement; one found here is a
// candidate to delete, or to unexport when its own package calls it.
//
// Exit status: 0 after the report, 2 on a load error.
package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dcsr/internal/lint"
)

func main() {
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	m, err := lint.LoadModule(root)
	if err != nil {
		fatal(err)
	}
	dirs, err := m.PackageDirs("./...")
	if err != nil {
		fatal(err)
	}
	var pkgs []*lint.Package
	used := map[types.Object]bool{}
	for _, dir := range dirs {
		p, err := m.PackageByDir(dir)
		if err != nil {
			fatal(err)
		}
		pkgs = append(pkgs, p)
		for _, obj := range p.Info.Uses {
			if obj.Pkg() != nil && obj.Pkg() != p.Types {
				used[origin(obj)] = true
			}
		}
	}
	for _, p := range pkgs {
		if p.ImportPath != m.Path && !strings.HasPrefix(p.ImportPath, m.Path+"/internal/") {
			continue
		}
		var unused []decl
		for _, f := range p.Files {
			for _, d := range exportedDecls(f) {
				if obj := p.Info.Defs[d.ident]; obj != nil && !used[obj] {
					unused = append(unused, d)
				}
			}
		}
		sort.Slice(unused, func(i, j int) bool { return unused[i].ident.Pos() < unused[j].ident.Pos() })
		for _, d := range unused {
			pos := m.Fset.Position(d.ident.Pos())
			rel, err := filepath.Rel(root, pos.Filename)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%s:%d: %s\n", rel, pos.Line, d.name)
		}
	}
}

// origin maps a member of an instantiated generic type to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

type decl struct {
	ident *ast.Ident
	name  string // Recv.Name for methods and fields
}

// exportedDecls returns f's exported top-level names, the exported
// methods of its types and the exported fields and interface methods of
// its exported type declarations.
func exportedDecls(f *ast.File) []decl {
	var out []decl
	add := func(id *ast.Ident, owner string) {
		if id.IsExported() {
			name := id.Name
			if owner != "" {
				name = owner + "." + name
			}
			out = append(out, decl{id, name})
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			owner := ""
			if d.Recv != nil {
				owner = recvName(d.Recv.List[0].Type)
			}
			add(d.Name, owner)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, "")
					}
				case *ast.TypeSpec:
					add(s.Name, "")
					if !s.Name.IsExported() {
						continue
					}
					var members *ast.FieldList
					switch t := s.Type.(type) {
					case *ast.StructType:
						members = t.Fields
					case *ast.InterfaceType:
						members = t.Methods
					}
					if members != nil {
						for _, fld := range members.List {
							for _, id := range fld.Names {
								add(id, s.Name.Name)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// recvName is the base type name of a method receiver: T, *T, T[P].
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dcsr-exports: %v\n", err)
	os.Exit(2)
}
