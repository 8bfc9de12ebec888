package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureDirs returns the fixture packages under testdata/src as lint
// patterns — a multi-package corpus with known, non-empty diagnostic
// output for exercising the runner itself.
func fixtureDirs(t *testing.T, m *Module) []string {
	t.Helper()
	base := filepath.Join(m.Root, filepath.FromSlash(fixtureBase))
	ents, err := os.ReadDir(base)
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range ents {
		if e.IsDir() {
			dirs = append(dirs, fixtureBase+"/"+e.Name())
		}
	}
	if len(dirs) < 3 {
		t.Fatalf("expected several fixture packages under %s, got %v", base, dirs)
	}
	return dirs
}

// render flattens diagnostics to the exact byte stream a caller would
// print, so "deterministic" means byte-identical, not just same-set.
func render(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestRunnerDeterministic pins the runner's output contract: two runs
// of the full default analyzer set over the whole fixture corpus, each
// on a freshly loaded module, produce byte-identical output.
func TestRunnerDeterministic(t *testing.T) {
	var want string
	for run := 0; run < 2; run++ {
		r, err := NewRunner(".")
		if err != nil {
			t.Fatal(err)
		}
		diags, err := r.Lint(fixtureDirs(t, r.Module)...)
		if err != nil {
			t.Fatal(err)
		}
		got := render(diags)
		if got == "" {
			t.Fatal("fixture corpus produced no diagnostics; the determinism test needs a non-trivial output")
		}
		if run == 0 {
			want = got
		} else if got != want {
			t.Errorf("second run differs from the first:\n--- first\n%s--- second\n%s", want, got)
		}
	}
}

// BenchmarkLintRepo measures the full-module lint: fresh module load,
// every package parsed, type-checked and analyzed, each iteration.
func BenchmarkLintRepo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Lint("."); err != nil {
			b.Fatal(err)
		}
	}
}
