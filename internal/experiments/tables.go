// Package experiments regenerates every table and figure of the dcSR
// paper's evaluation (§2, §4, Appendix). Each experiment returns both a
// formatted text table (what cmd/dcsr-bench, the one command that runs
// them, prints) and the raw series (what the tests assert on).
//
// Two experiment families exist:
//
//   - Device-analytic experiments (Figs 1a/1b, Table 1, Figs 8, 12) use
//     the calibrated device profiles of internal/device and the FLOPs
//     arithmetic of internal/edsr; they are instantaneous.
//   - Trained experiments (Figs 1c, 5, 9, 10, 11 and the ablations) run
//     the real pipeline — codec, VAE, clustering, CNN training — at a
//     reduced "evaluation scale" (small frames, small models) so pure-Go
//     CPU training completes in seconds. EXPERIMENTS.md records how each
//     reduced setting maps to the paper's.
package experiments

import (
	"fmt"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Add appends one row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func mb(bytes int) string { return fmt.Sprintf("%.3f", float64(bytes)/(1<<20)) }
