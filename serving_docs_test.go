package dcsr_test

import (
	"os"
	"regexp"
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
