// Command dcsr-lint runs the repository's static-analysis pass
// (internal/lint) over module packages and reports every invariant
// violation: undocumented or malformed metric names, nondeterminism in
// the deterministic packages, silently discarded errors, unjoined
// goroutines, misplaced or stored contexts, lock-order cycles and leaked
// locks, function-form atomics on struct fields, identity-compared
// sentinel errors, and leaked timers.
// The analyzers and the //lint:allow suppression policy are catalogued
// in docs/LINTING.md.
//
// Usage:
//
//	dcsr-lint ./...
//	dcsr-lint -json ./internal/transport
//	dcsr-lint -v ./...
//
// Every run parses, type-checks and analyzes the matched packages one
// after another: type-checking is the run and analysis about 2 % of it,
// so there is nothing to cache or fan out. -v adds degraded-analysis
// warnings and the total wall time on stderr.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 usage or load error.
// The same pass gates `go test` through TestLintRepo, so CI needs no
// separate toolchain; -json exists for future machine consumption.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"dcsr/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	verbose := flag.Bool("v", false, "report degraded-analysis warnings and total wall time")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dcsr-lint [-json] [-v] [packages]\n\npackages default to ./...; patterns support dir and dir/... forms\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	runner, err := lint.NewRunner(cwd)
	if err != nil {
		fatal(err)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	start := time.Now()
	diags, err := runner.Lint(patterns...)
	if err != nil {
		fatal(err)
	}
	if *verbose {
		for _, soft := range runner.Module.SoftErrors() {
			fmt.Fprintf(os.Stderr, "dcsr-lint: warning: %v\n", soft)
		}
		fmt.Fprintf(os.Stderr, "dcsr-lint: total %s\n", time.Since(start).Round(time.Millisecond))
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "dcsr-lint: %d diagnostic(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dcsr-lint: %v\n", err)
	os.Exit(2)
}
