package dcsr_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"dcsr/internal/lint"
)

var (
	servingCodeSpan  = regexp.MustCompile("`([^`\n]+)`")
	servingMetricTok = regexp.MustCompile(`^[a-z][a-z0-9]*(?:_[a-z0-9]+)+$`)
	servingFlagTok   = regexp.MustCompile(`^-[a-z][a-z-]*$`)
)

// TestServingDocPins keeps docs/SERVING.md honest the way
// TestOperationsDocMetrics keeps docs/OPERATIONS.md honest: every metric
// name the runbook cites must be a documented metric (a row in the
// OPERATIONS.md table, which is itself checked against the code), and
// every CLI flag it cites must actually be defined by dcsr-serve or
// dcsr-play. A renamed metric or flag then fails here instead of
// silently stranding the operator guide.
func TestServingDocPins(t *testing.T) {
	raw, err := os.ReadFile("docs/SERVING.md")
	if err != nil {
		t.Fatal(err)
	}
	docs, err := lint.DocMetricNames(".")
	if err != nil {
		t.Fatal(err)
	}
	var flagSrc strings.Builder
	for _, p := range []string{"cmd/dcsr-serve/main.go", "cmd/dcsr-play/main.go"} {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		flagSrc.Write(src)
	}

	metrics, flags := map[string]bool{}, map[string]bool{}
	for _, m := range servingCodeSpan.FindAllStringSubmatch(string(raw), -1) {
		tok := m[1]
		switch {
		case strings.HasPrefix(tok, "transport_") && servingMetricTok.MatchString(tok):
			metrics[tok] = true
			if !docs[tok] {
				t.Errorf("docs/SERVING.md cites metric %s but docs/OPERATIONS.md has no such row", tok)
			}
		case servingFlagTok.MatchString(tok):
			flags[tok] = true
			if !strings.Contains(flagSrc.String(), `"`+strings.TrimPrefix(tok, "-")+`"`) {
				t.Errorf("docs/SERVING.md cites flag %s but neither dcsr-serve nor dcsr-play defines it", tok)
			}
		}
	}

	// The runbook must actually cover the serving surface: the shed
	// metrics and the admission flags are its reason to exist.
	for _, want := range []string{"transport_shed_total", "transport_inflight_peak", "transport_videos"} {
		if !metrics[want] {
			t.Errorf("docs/SERVING.md never cites %s", want)
		}
	}
	for _, want := range []string{"-max-inflight", "-max-clients", "-list-videos"} {
		if !flags[want] {
			t.Errorf("docs/SERVING.md never documents the %s flag", want)
		}
	}
}

var (
	docCmdFlagDef = regexp.MustCompile(`flag\.\w+\("([a-z0-9-]+)"`)
	docInvocation = regexp.MustCompile(`\bdcsr-(serve|play|prepare|bench|lint)\b`)
	docFlagTok    = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)`)
)

// TestDocCommandLines checks every command line the docs give a reader
// against the command it runs: in each fenced code block line (with its
// backslash continuations) and each inline code span, every flag after a
// dcsr-serve, dcsr-play, dcsr-prepare, dcsr-bench or dcsr-lint — up to
// the next shell separator, comment or command — must be one that
// command's main.go defines, and every comma-separated name a dcsr-bench
// -only passes must be an experiment dcsr-bench -list prints. A recipe
// for a flag that moved to another command, or was deleted, or for a
// retired experiment, then fails here.
func TestDocCommandLines(t *testing.T) {
	experiments := map[string]bool{}
	list, err := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "run", "./cmd/dcsr-bench", "-list").Output()
	if err != nil {
		t.Fatalf("dcsr-bench -list: %v", err)
	}
	for _, l := range strings.Split(string(list), "\n") {
		if f := strings.Fields(l); len(f) > 0 {
			experiments[f[0]] = true
		}
	}
	defined := map[string]map[string]bool{}
	for _, cmd := range []string{"serve", "play", "prepare", "bench", "lint"} {
		src, err := os.ReadFile("cmd/dcsr-" + cmd + "/main.go")
		if err != nil {
			t.Fatal(err)
		}
		defined[cmd] = map[string]bool{}
		for _, m := range docCmdFlagDef.FindAllStringSubmatch(string(src), -1) {
			defined[cmd][m[1]] = true
		}
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, doc := range append(docs, "README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md") {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range docCodeLines(string(raw)) {
			for _, inv := range docInvocation.FindAllStringSubmatchIndex(code, -1) {
				cmd := code[inv[2]:inv[3]]
				toks := strings.Fields(code[inv[1]:])
				for i, tok := range toks {
					if strings.HasPrefix(tok, "#") || docInvocation.MatchString(tok) ||
						strings.ContainsAny(tok[:1], "&|;") {
						break
					}
					m := docFlagTok.FindStringSubmatch(tok)
					if m == nil {
						continue
					}
					checked++
					if !defined[cmd][m[1]] {
						t.Errorf("%s: %q passes -%s, which dcsr-%s does not define", doc, strings.TrimSpace(code), m[1], cmd)
					}
					if cmd != "bench" || m[1] != "only" {
						continue
					}
					val, ok := strings.CutPrefix(tok[len(m[0]):], "=")
					if !ok && i+1 < len(toks) {
						val = toks[i+1]
					}
					for _, name := range strings.Split(val, ",") {
						if !experiments[name] {
							t.Errorf("%s: %q runs experiment %q, which dcsr-bench -list does not print", doc, strings.TrimSpace(code), name)
						}
					}
				}
			}
		}
	}
	if checked < 50 {
		t.Errorf("checked only %d flags in the docs' command lines; is the scan reaching them?", checked)
	}
}

var (
	docIdentChain = regexp.MustCompile(`[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+`)
	docFileExts   = map[string]bool{"go": true, "md": true, "json": true, "txt": true, "s": true, "bin": true, "sh": true, "mod": true}
)

// TestDocIdentifiers checks every Go name the docs cite in code against
// the source tree: a `pkg.Name` whose pkg is the facade (dcsr) or an
// internal package must be one of that package's top-level declarations
// (test functions included), and in a `Type.Member` whose Type is
// exported, Type must be declared in the tree and Member must be a
// method, a field (promoted ones included) or an interface method of a
// type of that name. A doc that cites a deleted or renamed declaration
// then fails here. CHANGES.md and ROADMAP.md are history and are not
// checked; snake_case members are bench/ metric names and file names
// are paths, so neither is a Go name.
func TestDocIdentifiers(t *testing.T) {
	d := parseDecls(t)
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, doc := range append(docs, "README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md") {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range docCodeLines(string(raw)) {
			for _, loc := range docIdentChain.FindAllStringIndex(code, -1) {
				if loc[0] > 0 && strings.ContainsRune("/-.", rune(code[loc[0]-1])) {
					continue // a path or a flag, not a selector
				}
				parts := strings.Split(code[loc[0]:loc[1]], ".")
				if docFileExts[parts[len(parts)-1]] || strings.Contains(parts[1], "_") && strings.ToLower(parts[1]) == parts[1] {
					continue
				}
				typ, member := parts[0], parts[1]
				if names, ok := d.pkgs[parts[0]]; ok {
					checked++
					if !names[parts[1]] {
						t.Errorf("%s: `%s` names no declaration of package %s", doc, code, parts[0])
						continue
					}
					if len(parts) < 3 || !d.isType(parts[1]) {
						continue
					}
					typ, member = parts[1], parts[2]
				} else if !ast.IsExported(typ) || len(typ) == 1 {
					continue // a variable, or a placeholder like A.mu
				}
				checked++
				switch {
				case !d.isType(typ):
					t.Errorf("%s: `%s` cites %s, which is no type of the tree", doc, code, typ)
				case !d.hasMember(typ, member, map[string]bool{}):
					t.Errorf("%s: `%s` cites %s.%s, which no type %s declares or promotes", doc, code, typ, member, typ)
				}
			}
		}
	}
	if checked < 100 {
		t.Errorf("checked only %d identifiers in the docs; is the scan reaching them?", checked)
	}
}

// declIndex is what TestDocIdentifiers checks a citation against: each
// checked package's top-level names, and per type name (across
// packages) its own members and the types it embeds or aliases.
type declIndex struct {
	pkgs    map[string]map[string]bool
	members map[string]map[string]bool
	embeds  map[string][]string
}

func (d *declIndex) isType(name string) bool { return d.members[name] != nil }

func (d *declIndex) hasMember(typ, member string, seen map[string]bool) bool {
	if d.members[typ][member] {
		return true
	}
	seen[typ] = true
	for _, e := range d.embeds[typ] {
		if !seen[e] && d.hasMember(e, member, seen) {
			return true
		}
	}
	return false
}

// parseDecls indexes the declarations of the root package and every
// package under internal/ (their tests included, testdata excluded).
func parseDecls(t *testing.T) *declIndex {
	d := &declIndex{pkgs: map[string]map[string]bool{"dcsr": {}}, members: map[string]map[string]bool{}, embeds: map[string][]string{}}
	addMember := func(typ, name string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]bool{}
		}
		if name != "" {
			d.members[typ][name] = true
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != "." && (e.Name() == "testdata" || !strings.HasPrefix(path, "internal")) {
			return filepath.SkipDir
		}
		if e.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if d.pkgs[pkg] == nil {
			d.pkgs[pkg] = map[string]bool{}
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				if fn.Recv == nil {
					d.pkgs[pkg][fn.Name.Name] = true
				} else {
					addMember(typeName(fn.Recv.List[0].Type), fn.Name.Name)
				}
				continue
			}
			for _, spec := range decl.(*ast.GenDecl).Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						d.pkgs[pkg][n.Name] = true
					}
				case *ast.TypeSpec:
					typ := s.Name.Name
					d.pkgs[pkg][typ] = true
					addMember(typ, "")
					var fields []*ast.Field
					switch u := s.Type.(type) {
					case *ast.StructType:
						fields = u.Fields.List
					case *ast.InterfaceType:
						fields = u.Methods.List
					default: // an alias or a defined type takes its target's members
						d.embeds[typ] = append(d.embeds[typ], typeName(u))
					}
					for _, fld := range fields {
						for _, n := range fld.Names {
							addMember(typ, n.Name)
						}
						if len(fld.Names) == 0 {
							addMember(typ, typeName(fld.Type))
							d.embeds[typ] = append(d.embeds[typ], typeName(fld.Type))
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// typeName is the bare name of a (possibly pointer, qualified or
// instantiated) type expression, or "" for a literal type.
func typeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	}
	return ""
}

// docCodeLines returns a Markdown document's code: each fenced block line,
// joined with the lines its trailing backslashes continue onto, and each
// inline code span outside the fences.
func docCodeLines(doc string) []string {
	var out []string
	fenced, cont := false, ""
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			for _, m := range servingCodeSpan.FindAllStringSubmatch(line, -1) {
				out = append(out, m[1])
			}
			continue
		}
		if strings.HasSuffix(line, `\`) {
			cont += strings.TrimSuffix(line, `\`) + " "
			continue
		}
		out, cont = append(out, cont+line), ""
	}
	return out
}
