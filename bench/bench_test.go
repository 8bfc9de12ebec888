package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json and the tables in
// main.go in step: same workloads, same metrics, same units, in order.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, code has %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !metricName.MatchString(m.Name) {
				t.Errorf("%s: bad metric name %q", kind, m.Name)
			}
		}
	}
	check("end_to_end", sp.EndToEnd, endToEnd)
	check("per_layer", sp.PerLayer, perLayer)
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestTinyWorkloads runs all four workloads, untraced and traced, on the
// tiny profile: every metric BENCHMARK.json names comes out exactly once,
// finite, the end-to-end ones non-zero, and every self-check passes.
func TestTinyWorkloads(t *testing.T) {
	start := time.Now()
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 1, seconds: 200 * time.Millisecond, trace: trace, outDir: out}
			res, err := execute(cfg, tiny)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, d.name)
				case m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v %s", w.name, trace, d.name, m.Value, m.Unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, m.Value)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
			}
		}
	}
	if d := time.Since(start); d > 15*time.Second && !raceEnabled {
		t.Errorf("tiny profile took %v, want under 15s", d)
	}
}

// TestUnknownWorkload pins the error path the driver's empty-directory
// probe and a typo share: no result line, an error.
func TestUnknownWorkload(t *testing.T) {
	if _, err := execute(config{workload: "nope", seconds: time.Millisecond, outDir: t.TempDir()}, tiny); err == nil {
		t.Fatal("unknown workload ran")
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "walk", ID: 0, Parent: -1, StartNS: 0, EndNS: 100e6},
		{Name: "codec.decode", ID: 1, Parent: 0, StartNS: 10e6, EndNS: 90e6},
		{Name: "edsr.enhance", ID: 2, Parent: 1, StartNS: 20e6, EndNS: 80e6},
	}}
	self := tr.selfTimes(0)
	for name, want := range map[string]float64{"walk": 20, "codec.decode": 20, "edsr.enhance": 60} {
		if got := self[name].sum(); got != want {
			t.Errorf("self time of %s = %v ms, want %v", name, got, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "latency_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "throughput", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		m    specMetric
		a, b sample
		want string
	}{
		{lower, sample{100, 101, 99}, sample{100, 102, 98}, "within bound"},
		{lower, sample{100, 101, 99}, sample{120, 121, 119}, "regressed"},
		{lower, sample{100, 101, 99}, sample{80, 81, 79}, "improved"},
		{higher, sample{100, 101, 99}, sample{80, 81, 79}, "regressed"},
		{lower, sample{100, 130, 70}, sample{100, 101, 99}, "unresolved"},
	} {
		if _, got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v → %v: %s, want %s", tc.m.Name, tc.a, tc.b, got, tc.want)
		}
	}
}

// TestCompareFiles feeds two captured run outputs through -compare.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, throughput float64) string {
		var buf bytes.Buffer
		for i := 0; i < 3; i++ {
			buf.WriteString("# noise the reader skips\n")
			buf.WriteString(`{"env":{"workload":"play_f32"}}` + "\n")
			fmt.Fprintf(&buf, `{"correct":true,"attempted":1,"failed":0,"metrics":{"throughput":{"value":%g,"unit":"1/s"}}}`+"\n", throughput+float64(i))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a", 100), write("same", 100), write("slow", 50)
	spec := filepath.Join("..", "BENCHMARK.json")
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, spec, a, same); err != nil || regressed {
		t.Errorf("same runs: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	if regressed, err := compareFiles(&out, spec, a, slow); err != nil || !regressed {
		t.Errorf("halved throughput: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Errorf("no regressed row in:\n%s", out.String())
	}
}
