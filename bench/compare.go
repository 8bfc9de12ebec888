package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// spec is the part of BENCHMARK.json the comparison and the tests read.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRuns collects, per workload and metric, the values of every run
// whose output was appended to path: each run contributes an {"env":…}
// line and the result line after it.
func readRuns(path string) (map[string]map[string]sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //lint:allow errcheck the file is only read
	out := map[string]map[string]sample{}
	var workload string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, `{"env"`):
			var h struct{ Env env }
			if err := json.Unmarshal([]byte(line), &h); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			workload = h.Env.Workload
		case strings.HasPrefix(line, `{"correct"`):
			var res result
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			if out[workload] == nil {
				out[workload] = map[string]sample{}
			}
			for name, m := range res.Metrics {
				out[workload][name] = append(out[workload][name], m.Value)
			}
		}
	}
	return out, sc.Err()
}

// verdict classifies b against a for one end-to-end metric: the change
// of the median in the metric's good direction, against its bound and
// against the quartile spread of either side.
func verdict(m specMetric, a, b sample) (change float64, v string) {
	ma, mb := a.median(), b.median()
	change = (mb - ma) / ma
	if m.Better == "lower" {
		change = -change
	}
	spread := math.Max(a.quantile(0.75)-a.quantile(0.25), b.quantile(0.75)-b.quantile(0.25)) / ma
	switch {
	case spread > m.Bound:
		return change, "unresolved"
	case change < -m.Bound:
		return change, "regressed"
	case change > m.Bound:
		return change, "improved"
	}
	return change, "within bound"
}

// compareFiles prints one row per workload × metric and reports whether
// any end-to-end metric regressed.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (regressed bool, err error) {
	sp, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-16s %-32s %14s %14s %9s  %s\n", "workload", "metric", "a (median)", "b (median)", "better by", "verdict")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			change, v := verdict(m, va, vb)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(w, "%-16s %-32s %14.6g %14.6g %+8.2f%%  %s (bound %g%%, n=%d/%d)\n",
				wl.Name, m.Name, va.median(), vb.median(), 100*change, v, 100*m.Bound, len(va), len(vb))
		}
		for _, m := range sp.PerLayer {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 || (va.median() == 0 && vb.median() == 0) {
				continue
			}
			fmt.Fprintf(w, "%-16s %-32s %14.6g %14.6g %+8.2f%%\n",
				wl.Name, m.Name, va.median(), vb.median(), 100*(vb.median()-va.median())/va.median())
		}
	}
	return regressed, nil
}
