package dcsr_test

import (
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
