package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// metricConstructors maps obs constructor method names to the metric
// kind they create.
var metricConstructors = map[string]string{
	"Counter":   "counter",
	"Gauge":     "gauge",
	"Histogram": "histogram",
}

// snakeCase is the naming convention for every metric.
var snakeCase = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// MetricNames enforces the stable-metric-surface contract: every name
// handed to an obs constructor (Obs.Counter, Registry.Histogram, …)
// must be a compile-time string constant, follow the snake_case naming
// convention with the kind's unit suffix (counters `_total`, histograms
// `_seconds`/`_bytes`), and appear in docs/OPERATIONS.md —
// statically, so a metric no test happens to increment is still pinned
// to its documentation.
type MetricNames struct {
	// Docs is the documented metric-name set (see DocMetricNames).
	Docs map[string]bool
}

// Name implements Analyzer.
func (*MetricNames) Name() string { return "metricnames" }

// Doc implements Analyzer.
func (*MetricNames) Doc() string {
	return "obs metric names are documented compile-time snake_case constants"
}

// Run implements Analyzer.
func (a *MetricNames) Run(p *Pass) {
	if strings.HasSuffix(p.Path, "internal/obs") {
		// The obs package defines the constructors; its forwarding
		// methods (Obs.Counter → Registry.Counter, …) are generic over
		// the name by design and are not metric-creating call sites.
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			kind, ok := metricConstructors[sel.Sel.Name]
			if !ok || len(call.Args) == 0 || !a.isObsReceiver(p, sel.X) {
				return true
			}
			arg := call.Args[0]
			tv, ok := p.Info.Types[arg]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				p.Reportf(arg.Pos(), "metric name passed to %s must be a compile-time string constant so the name is statically pinned to docs/OPERATIONS.md", sel.Sel.Name)
				return true
			}
			name := constant.StringVal(tv.Value)
			if !snakeCase.MatchString(name) {
				p.Reportf(arg.Pos(), "metric name %q is not snake_case", name)
				return true
			}
			switch kind {
			case "counter":
				if !strings.HasSuffix(name, "_total") {
					p.Reportf(arg.Pos(), "counter %q must end in _total", name)
					return true
				}
			case "histogram":
				if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") {
					p.Reportf(arg.Pos(), "histogram %q must carry a unit suffix (_seconds or _bytes)", name)
					return true
				}
			case "gauge":
				if strings.HasSuffix(name, "_total") || strings.HasSuffix(name, "_seconds") {
					p.Reportf(arg.Pos(), "gauge %q must not use a counter/histogram suffix", name)
					return true
				}
			}
			if a.Docs != nil && !a.Docs[name] {
				p.Reportf(arg.Pos(), "metric %q is not documented in docs/OPERATIONS.md (stable metric surface)", name)
			}
			return true
		})
	}
}

// isObsReceiver reports whether expr's static type is *obs.Obs or
// *obs.Registry (the metric-constructing handles).
func (a *MetricNames) isObsReceiver(p *Pass, expr ast.Expr) bool {
	tv, ok := p.Info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	if !strings.HasSuffix(named.Obj().Pkg().Path(), "internal/obs") {
		return false
	}
	name := named.Obj().Name()
	return name == "Obs" || name == "Registry"
}

// opsMetricRow matches a metric row of the docs/OPERATIONS.md tables: a
// table cell whose entire content is one backticked lower_snake name.
// Rows documenting Go identifiers (RetryPolicy fields etc.) contain
// uppercase and don't match.
var opsMetricRow = regexp.MustCompile("^\\| `([a-z0-9_]+)` \\|")

// DocMetricNames parses the stable metric table out of
// docs/OPERATIONS.md under the module root. A name documented twice is
// an error — the table is the single source of truth.
func DocMetricNames(root string) (map[string]bool, error) {
	path := filepath.Join(root, "docs", "OPERATIONS.md")
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("lint: metric table: %w", err)
	}
	names := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if m := opsMetricRow.FindStringSubmatch(line); m != nil {
			if names[m[1]] {
				return nil, fmt.Errorf("lint: %s documents metric %s twice", path, m[1])
			}
			names[m[1]] = true
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no metric rows parsed from %s", path)
	}
	return names, nil
}
