package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtureBase is where the analyzer fixture packages live, relative to
// the module root. PackageDirs skips testdata when expanding ./..., so
// the fixtures are invisible to TestLintRepo and only load here.
const fixtureBase = "internal/lint/testdata/src"

func newTestModule(t *testing.T) *Module {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFixtures runs each analyzer over its fixture package and matches
// the diagnostics against the fixture's `// want "regex"` comments: every
// diagnostic must be wanted on its exact line, every want must be hit,
// and suppressed lines must stay silent.
func TestFixtures(t *testing.T) {
	m := newTestModule(t)
	cases := []struct {
		name string
		mk   func(path string) []Analyzer
	}{
		{"metricnames", func(path string) []Analyzer {
			return []Analyzer{&MetricNames{Docs: map[string]bool{
				"frames_total": true, "enhance_seconds": true, "queue_depth": true,
				"fetches_window_total": true, "rtt_window_seconds": true,
				"rtt_seconds":             true,
				"quant_int8_models_total": true, "quant_fallback_total": true,
				"codec_enhance_int8_seconds":       true,
				"modelstream_backbone_fetch_total": true,
				"modelstream_delta_bytes_total":    true,
				"modelstream_fallback_total":       true,
				"delta_models_total":               true,
				"delta_fallback_total":             true,
			}}}
		}},
		{"nodeterm", func(path string) []Analyzer {
			return []Analyzer{&NoDeterm{Pkgs: map[string]bool{path: true}}}
		}},
		{"errcheck", func(path string) []Analyzer {
			return []Analyzer{
				&ErrCheck{
					Methods:  map[string]bool{"Close": true, "Flush": true, "Write": true},
					PkgPaths: map[string]bool{path: true},
				},
				&GoLeak{}, // exercises the stacked two-check suppression
			}
		}},
		{"goleak", func(path string) []Analyzer {
			return []Analyzer{&GoLeak{}}
		}},
		{"ctxcheck", func(path string) []Analyzer {
			return []Analyzer{&CtxCheck{}}
		}},
		{"atomicfield", func(path string) []Analyzer {
			return []Analyzer{&AtomicField{}}
		}},
		{"errcmp", func(path string) []Analyzer {
			return []Analyzer{&ErrCmp{}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rel := fixtureBase + "/" + tc.name
			r := &Runner{Module: m, Analyzers: tc.mk(m.Path + "/" + rel)}
			diags, err := r.Lint(rel)
			if err != nil {
				t.Fatal(err)
			}
			checkWants(t, filepath.Join(m.Root, filepath.FromSlash(rel)), diags)
		})
	}
}

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// checkWants compares diagnostics against the `// want` comments of the
// fixture files in dir.
func checkWants(t *testing.T, dir string, diags []Diagnostic) {
	t.Helper()
	type want struct {
		file string
		line int
		re   *regexp.Regexp
		hit  bool
	}
	var wants []*want
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		full := filepath.Join(dir, name)
		src, err := os.ReadFile(full)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, mm := range wantRe.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(mm[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", full, i+1, mm[1], err)
				}
				wants = append(wants, &want{file: full, line: i + 1, re: re})
			}
		}
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.File && w.line == d.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: want diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// TestParseDirective covers the //lint: comment grammar case by case.
func TestParseDirective(t *testing.T) {
	known := map[string]bool{"errcheck": true, "goleak": true}
	cases := []struct {
		name    string
		comment string
		ok      bool
		check   string
		reason  string
		diag    string // regexp over the problem message, "" = none
	}{
		{name: "not a lint comment", comment: "// plain comment", ok: false},
		{name: "valid", comment: "//lint:allow errcheck teardown close error is unactionable",
			ok: true, check: "errcheck", reason: "teardown close error is unactionable"},
		{name: "extra whitespace", comment: "//lint:allow  errcheck  spaced out reason",
			ok: true, check: "errcheck", reason: "spaced out reason"},
		{name: "unknown verb", comment: "//lint:deny errcheck nope",
			diag: `unknown lint directive //lint:deny`},
		{name: "no arguments", comment: "//lint:allow",
			diag: `malformed //lint:allow`},
		{name: "unknown check", comment: "//lint:allow bogus a reason",
			diag: `unknown check "bogus" \(known checks: errcheck, goleak\)`},
		{name: "missing reason", comment: "//lint:allow goleak",
			diag: `//lint:allow goleak is missing the required reason`},
		{name: "reason is whitespace", comment: "//lint:allow goleak   ",
			diag: `missing the required reason`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, diag, ok := parseDirective(tc.comment, known)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v (diag %q)", ok, tc.ok, diag)
			}
			if tc.diag == "" {
				if diag != "" {
					t.Fatalf("unexpected problem message %q", diag)
				}
			} else if !regexp.MustCompile(tc.diag).MatchString(diag) {
				t.Fatalf("problem message %q does not match %q", diag, tc.diag)
			}
			if ok && (d.check != tc.check || d.reason != tc.reason) {
				t.Fatalf("parsed (%q, %q), want (%q, %q)", d.check, d.reason, tc.check, tc.reason)
			}
		})
	}
}

// TestDirectiveDiagnostics runs the directive fixture end to end under
// the default analyzer set: each malformed //lint: comment becomes a
// "directive" diagnostic, the underlying findings those comments failed
// to suppress survive, and the one valid directive in the file still
// works — while an attempt to allow the "directive" pseudo-check itself,
// or a retired analyzer (nilsafe, lockorder, timerleak), is rejected as
// unknown.
func TestDirectiveDiagnostics(t *testing.T) {
	m := newTestModule(t)
	rel := fixtureBase + "/directive"
	path := m.Path + "/" + rel
	as, err := DefaultAnalyzers(m)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Module: m, Analyzers: append(as, &NoDeterm{Pkgs: map[string]bool{path: true}})}
	diags, err := r.Lint(rel)
	if err != nil {
		t.Fatal(err)
	}
	var directive, nodeterm []Diagnostic
	for _, d := range diags {
		switch d.Check {
		case "directive":
			directive = append(directive, d)
		case "nodeterm":
			nodeterm = append(nodeterm, d)
		default:
			t.Errorf("diagnostic from unexpected check: %s", d)
		}
	}
	wantDirective := []string{
		`unknown lint directive //lint:deny`,
		`malformed //lint:allow`,
		`unknown check "bogus"`,
		`//lint:allow nodeterm is missing the required reason`,
		`unknown check "directive"`,
		`unknown check "nilsafe" \(known checks: atomicfield, ctxcheck, errcheck, errcmp, goleak, metricnames, nodeterm\)`,
		`unknown check "lockorder"`,
		`unknown check "timerleak"`,
	}
	if len(directive) != len(wantDirective) {
		t.Errorf("got %d directive diagnostics, want %d: %v", len(directive), len(wantDirective), directive)
	}
	for _, re := range wantDirective {
		found := false
		for _, d := range directive {
			if regexp.MustCompile(re).MatchString(d.Message) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no directive diagnostic matches %q", re)
		}
	}
	// The four malformed directives and the retired checks suppress
	// nothing, so their functions' wall-clock reads must all survive; the
	// valid directive inside Unsuppressable removes the sixth.
	if len(nodeterm) != 5 {
		t.Errorf("got %d surviving nodeterm diagnostics, want 5: %v", len(nodeterm), nodeterm)
	}
}

// TestLintRepo is the repository gate: the default analyzer set over the
// full module must report nothing. Fix the finding or add a reasoned
// //lint:allow at the site — this test failing is the lint build
// breaking.
func TestLintRepo(t *testing.T) {
	diags, err := Lint(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestDocMetricNames pins the docs-side parser: the OPERATIONS.md table
// must parse, be non-empty, and contain the core series every subsystem
// reports.
func TestDocMetricNames(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	docs, err := DocMetricNames(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"transport_requests_total", "codec_enhance_seconds", "transport_open_conns",
	} {
		if !docs[name] {
			t.Errorf("docs/OPERATIONS.md metric table is missing %s", name)
		}
	}
}

// TestLoadHonorsBuildConstraints pins the loader against the tensor
// package, whose kernel dispatch is declared twice under complementary
// build constraints: loading both twins would type-check as a pile of
// redeclarations and silently weaken every analyzer there.
func TestLoadHonorsBuildConstraints(t *testing.T) {
	m := newTestModule(t)
	pkg, err := m.PackageByDir(filepath.Join(m.Root, "internal", "tensor"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range pkg.TypeErrors {
		t.Errorf("type error: %v", e)
	}
}
