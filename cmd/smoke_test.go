// Package cmd_test smoke-tests the command-line binaries end to end.
package cmd_test

import (
	"bufio"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
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

// runCmd runs one built binary to completion and returns its combined
// output; a non-zero exit fails the test.
func runCmd(t *testing.T, bin, name string, args ...string) string {
	t.Helper()
	out, err := exec.Command(filepath.Join(bin, name), args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
	}
	return string(out)
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
	run := func(name string, args ...string) string { t.Helper(); return runCmd(t, bin, name, args...) }
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

// TestLintBenchSmoke runs the two developer binaries: dcsr-lint over one
// clean package from inside the module (exit 0, nothing printed);
// dcsr-bench -list, which names the experiments -only accepts — the int8
// report among them, the retired kernel timers and perf reports not; and
// dcsr-bench -only with a name -list does not print, which must exit 2
// naming the known experiments rather than run nothing and succeed.
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
	if !slices.Contains(names, "quant") || slices.Contains(names, "kernels") ||
		slices.Contains(names, "cachebudget") || slices.Contains(names, "modelstream") || slices.Contains(names, "abr") {
		t.Errorf("dcsr-bench -list names %v; want quant listed and kernels, cachebudget, modelstream, abr gone", names)
	}
	for _, unknown := range []string{"modelstream", "abr"} {
		out, err = exec.Command(filepath.Join(bin, "dcsr-bench"), "-only", "fig8,"+unknown).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), `unknown experiment "`+unknown+`"`) ||
			!strings.Contains(string(out), "quant") || strings.Contains(string(out), "--- fig8") {
			t.Errorf("dcsr-bench -only fig8,%s: %v, want exit 2 naming the unknown one and the known ones before running any\n%s", unknown, err, out)
		}
	}
}

// TestPlayCacheFlagsSmoke pins dcsr-play's one cache knob: a negative
// -cache-budget, or -cache-budget beside -no-cache, must exit 2 with a
// usage message before anything loads, rather than play with a cache the
// user did not ask for.
func TestPlayCacheFlagsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries; skipped in short mode")
	}
	bin := buildCmds(t, "dcsr-play")
	missing := filepath.Join(t.TempDir(), "no-artifact")
	for _, args := range [][]string{
		{"-in", missing, "-cache-budget", "-5"},
		{"-in", missing, "-no-cache", "-cache-budget", "4096"},
	} {
		out, err := exec.Command(filepath.Join(bin, "dcsr-play"), args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "-cache-budget") ||
			!strings.Contains(string(out), "Usage of") {
			t.Errorf("dcsr-play %s: %v, want exit 2 with a usage message naming -cache-budget\n%s", strings.Join(args, " "), err, out)
		}
	}
}

// TestServeFleetSmoke drives the origin binary over loopback: two
// dcsr-prepare -delta artifacts behind one dcsr-serve (both listeners on
// port 0, addresses read off its stdout), dcsr-play listing the two
// digests and playing the second by digest with enhanced frames (and
// again under -no-cache, with no cache hit), the sidecar's /metrics
// reporting both videos, and a SIGINT that drains to exit 0.
func TestServeFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries; skipped in short mode")
	}
	bin := buildCmds(t, "dcsr-prepare", "dcsr-serve", "dcsr-play")
	run := func(name string, args ...string) string { t.Helper(); return runCmd(t, bin, name, args...) }
	root := t.TempDir()
	var dirs []string
	for _, seed := range []string{"7", "8"} {
		dir := filepath.Join(root, "artifact"+seed)
		run("dcsr-prepare", "-out", dir, "-steps", "20", "-filters", "4", "-resblocks", "1", "-delta",
			"-genre", "news", "-w", "48", "-h", "32", "-seed", seed)
		dirs = append(dirs, dir)
	}

	serve := exec.Command(filepath.Join(bin, "dcsr-serve"), "-in", strings.Join(dirs, ","),
		"-listen", "127.0.0.1:0", "-obs-addr", "127.0.0.1:0")
	stdout, err := serve.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1) // one send, after stdout is drained
	lines := make(chan string)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
		exited <- serve.Wait()
	}()
	stopped := false
	t.Cleanup(func() {
		if !stopped {
			serve.Process.Kill()
		}
	})
	// await returns the first capture of re on the origin's stdout.
	deadline := time.After(60 * time.Second)
	await := func(pattern string) string {
		t.Helper()
		re := regexp.MustCompile(pattern)
		for {
			select {
			case l, ok := <-lines:
				if !ok {
					t.Fatalf("dcsr-serve exited before printing %q", pattern)
				}
				if m := re.FindStringSubmatch(l); m != nil {
					return m[1]
				}
			case <-deadline:
				t.Fatalf("dcsr-serve printed no %q within 60 s", pattern)
			}
		}
	}
	addr := await(`^serving 2 video\(s\) on (\S+)`)
	obsAddr := await(`^obs sidecar on http://(\S+)`)

	listing := run("dcsr-play", "-addr", addr, "-list-videos")
	digests := regexp.MustCompile(`(?m)^  ([0-9a-f]{64})  `).FindAllStringSubmatch(listing, -1)
	if len(digests) != 2 || digests[0][1] == digests[1][1] {
		t.Fatalf("dcsr-play -list-videos does not show two distinct digests:\n%s", listing)
	}
	second := digests[1][1]
	play := run("dcsr-play", "-addr", addr, "-video", second)
	enhanced := regexp.MustCompile(`(?m)^(\d+) I frames enhanced in-loop`).FindStringSubmatch(play)
	if !strings.Contains(play, "selected video "+second) || enhanced == nil {
		t.Fatalf("dcsr-play -video did not play the second video:\n%s", play)
	}
	if n, _ := strconv.Atoi(enhanced[1]); n == 0 || !strings.Contains(play, "model stream: backbone ") {
		t.Errorf("dcsr-play -video enhanced no frame or fetched no backbone:\n%s", play)
	}
	// -no-cache reaches the wire session as it does the -in one.
	hits := regexp.MustCompile(`\((\d+) model downloads, (\d+) cache hits\)`)
	cached := hits.FindStringSubmatch(play)
	uncached := hits.FindStringSubmatch(run("dcsr-play", "-addr", addr, "-video", second, "-no-cache"))
	if cached == nil || cached[2] == "0" || uncached == nil || uncached[2] != "0" {
		t.Errorf("dcsr-play -no-cache over -addr: cached run %q, uncached run %q; want hits, then 0 hits", cached, uncached)
	}

	resp, err := http.Get("http://" + obsAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^transport_videos 2$`).Match(metrics) || strings.Contains(string(metrics), "modelstore_chunk_") {
		t.Errorf("/metrics lacks transport_videos 2 or still carries a modelstore_chunk_ series:\n%s", metrics)
	}

	if err := serve.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	go func() {
		for range lines { // let the scanner reach EOF
		}
	}()
	select {
	case err := <-exited:
		stopped = true
		if err != nil {
			t.Errorf("dcsr-serve after SIGINT: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Error("dcsr-serve did not exit within 30 s of SIGINT")
	}
}
