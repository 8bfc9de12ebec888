// Package cmd_test smoke-tests the command-line binaries end to end.
package cmd_test

import (
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// buildCmds builds the named commands into a fresh directory and returns it.
func buildCmds(t *testing.T, names ...string) string {
	t.Helper()
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, n := range names {
		args = append(args, "./cmd/"+n)
	}
	build := exec.Command("go", args...)
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestPrepareResumePlaySmoke builds the binaries and drives the publisher
// round trip through the one artifact directory: dcsr-prepare writes it,
// a second dcsr-prepare on the same -out resumes it without training, and
// dcsr-play -in plays it.
func TestPrepareResumePlaySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries; skipped in short mode")
	}
	bin := buildCmds(t, "dcsr-prepare", "dcsr-play")
	run := func(name string, args ...string) string {
		t.Helper()
		out, err := exec.Command(filepath.Join(bin, name), args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
		}
		return string(out)
	}
	dir := filepath.Join(t.TempDir(), "artifact")
	clip := []string{"-genre", "news", "-w", "48", "-h", "32", "-seed", "7"}
	prepare := append([]string{"-out", dir, "-steps", "20", "-filters", "4", "-resblocks", "1", "-int8", "-delta"}, clip...)

	first := run("dcsr-prepare", prepare...)
	if strings.Contains(first, "resumed from") || !strings.Contains(first, "artifact written to") {
		t.Fatalf("first dcsr-prepare did not run from scratch to completion:\n%s", first)
	}
	second := run("dcsr-prepare", prepare...)
	if !strings.Contains(second, "resumed from") || !strings.Contains(second, "no training run") {
		t.Fatalf("second dcsr-prepare on the same -out did not report a resumed run:\n%s", second)
	}
	// Same verdicts and sizes either way, apart from the line only a resume
	// prints (models print in map order, so compare the lines as a set).
	lines := func(out string) []string {
		var keep []string
		for _, l := range strings.Split(out, "\n") {
			if !strings.HasPrefix(l, "resumed from") {
				keep = append(keep, l)
			}
		}
		sort.Strings(keep)
		return keep
	}
	if !slices.Equal(lines(first), lines(second)) {
		t.Errorf("resumed run reports a different artifact:\n%s\nvs\n%s", second, first)
	}
	play := run("dcsr-play", append([]string{"-in", dir}, clip...)...)
	for _, want := range []string{"loaded artifact: ", " on the int8 path)", "downloaded: video ", "model stream: backbone ", "dB PSNR"} {
		if !strings.Contains(play, want) {
			t.Errorf("dcsr-play output lacks %q:\n%s", want, play)
		}
	}
	if strings.Contains(play, "(0 on the int8 path)") || strings.Contains(play, "models 0 B") {
		t.Errorf("dcsr-play served no int8 frames or no model bytes:\n%s", play)
	}
}

// TestLintBenchSmoke runs the two developer binaries once each: dcsr-lint
// over one clean package from inside the module (exit 0, nothing
// printed), and dcsr-bench -list, which names the experiments -only
// accepts — the int8 gate sweep among them, the retired kernel timers not.
func TestLintBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries; skipped in short mode")
	}
	bin := buildCmds(t, "dcsr-lint", "dcsr-bench")
	lint := exec.Command(filepath.Join(bin, "dcsr-lint"), "./internal/modelstore")
	lint.Dir = ".."
	if out, err := lint.CombinedOutput(); err != nil || len(out) != 0 {
		t.Errorf("dcsr-lint ./internal/modelstore: %v\n%s", err, out)
	}
	out, err := exec.Command(filepath.Join(bin, "dcsr-bench"), "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("dcsr-bench -list: %v\n%s", err, out)
	}
	var names []string
	for _, l := range strings.Split(string(out), "\n") {
		if f := strings.Fields(l); len(f) > 0 {
			names = append(names, f[0])
		}
	}
	if !slices.Contains(names, "quant") || slices.Contains(names, "kernels") {
		t.Errorf("dcsr-bench -list names %v; want quant listed and kernels gone", names)
	}
}
