// Command bench is the repository's end-to-end benchmark: four workloads
// (two viewers, one origin, one publisher) over the real stack —
// core.PrepareCtx → transport.Server on loopback TCP → Client.PlayCtx and
// fetch loops — with output self-checks and, in a separate traced run,
// per-layer attribution. BENCHMARK.json at the repository root names the
// metrics; README.md in this directory defines them.
//
//	go run -C bench . -workload play_f32 -seed 1 -seconds 12 -trace 0
//	go run -C bench . -compare a.txt b.txt
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric and its unit; BENCHMARK.json carries the
// same lists (bench_test.go holds the two in step).
type metricDef struct{ name, unit string }

// endToEnd is printed by an untraced run. Every metric is defined on
// every workload (see README.md for the four readings of each).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput", "1/s"},
	{"latency_ms", "ms"},
	{"wire_bytes", "B"},
	{"model_bytes", "B"},
	{"alloc_mb", "MB"},
}

// perLayer is printed by a traced run; a metric a workload does not
// exercise reads 0 there.
var perLayer = []metricDef{
	{"transport.fetch_ms", "ms"},
	{"transport.segment_fetch_p50_ms", "ms"},
	{"transport.model_fetch_ms", "ms"},
	{"transport.requests", "count"},
	{"transport.bytes_down", "B"},
	{"transport.retries", "count"},
	{"transport.manifest_p50_us", "us"},
	{"transport.segment_p50_us", "us"},
	{"transport.model_p50_us", "us"},
	{"transport.fetch_p99_ms", "ms"},
	{"transport.payload_mb_per_s", "MB/s"},
	{"transport.register_ms", "ms"},
	{"transport.manifest_encode_us", "us"},
	{"transport.manifest_decode_us", "us"},
	{"core.segment_stream_us", "us"},
	{"nn.load_weights_ms", "ms"},
	{"nn.delta_apply_ms", "ms"},
	{"nn.delta_encode_ms", "ms"},
	{"nn.encode_weights_ms", "ms"},
	{"modelstore.cache_hit_share", "ratio"},
	{"modelstore.cache_bytes", "B"},
	{"codec.unmarshal_ms_per_segment", "ms"},
	{"codec.decode_self_ms_per_frame", "ms"},
	{"codec.decode_share", "ratio"},
	{"codec.encode_ms_per_frame", "ms"},
	{"edsr.enhance_p50_ms", "ms"},
	{"edsr.enhance_n", "count"},
	{"edsr.enhance_share", "ratio"},
	{"edsr.iframes_enhanced", "count"},
	{"edsr.iframes_int8", "count"},
	{"edsr.forward_ms", "ms"},
	{"edsr.tensorize_ms", "ms"},
	{"edsr.colorconv_ms", "ms"},
	{"edsr.enhance_gflops", "GFLOP/s"},
	{"device.profile_gflops", "GFLOP/s"},
	{"edsr.enhance_nproc_ms", "ms"},
	{"edsr.allocs_per_enhance", "count"},
	{"edsr.train_ms_per_step", "ms"},
	{"edsr.calibrate_ms_per_frame", "ms"},
	{"tensor.conv_f32_body_ms", "ms"},
	{"tensor.conv_f32_body_gflops", "GFLOP/s"},
	{"tensor.matmul_body_gflops", "GFLOP/s"},
	{"tensor.conv_int8_body_ms", "ms"},
	{"tensor.conv_int8_body_gops", "GOP/s"},
	{"tensor.conv_train_fwd_ms", "ms"},
	{"tensor.conv_train_bwd_ms", "ms"},
	{"tensor.pool_workers", "count"},
	{"splitter.split_ms", "ms"},
	{"vae.train_ms", "ms"},
	{"vae.features_ms_per_frame", "ms"},
	{"cluster.select_k_ms", "ms"},
	{"core.clusters", "count"},
	{"core.int8_models", "count"},
	{"core.delta_models", "count"},
	{"core.train_gflop", "GFLOP"},
	{"walk.accounted_share", "ratio"},
	{"walk.vs_play_ratio", "ratio"},
	{"core.accounted_share", "ratio"},
	{"quality.psnr_ratio", "ratio"},
	{"play.psnr_db", "dB"},
	{"play.video_bytes", "B"},
	{"play.delta_model_bytes", "B"},
	{"bench.peak_rss_mb", "MB"},
	{"bench.calib_ms", "ms"},
	{"bench.trace_spans", "count"},
}

// workloads maps each workload name to its function; BENCHMARK.json
// records why each exists.
var workloads = []struct {
	name string
	run  func(context.Context, *run) error
}{
	{"play_f32", func(ctx context.Context, r *run) error { return r.play(ctx, false) }},
	{"play_int8_delta", func(ctx context.Context, r *run) error { return r.play(ctx, true) }},
	{"origin_fetch", func(ctx context.Context, r *run) error { return r.originFetch(ctx) }},
	{"prepare", func(ctx context.Context, r *run) error { return r.prepare(ctx) }},
}

// profile sizes the inputs. The reference profile is fixed — later
// issues' numbers hang on it; -tiny exists for bench_test.go.
type profile struct {
	name                       string
	w, h                       int
	cues, minFrames, maxFrames int
	model                      modelConfig
	setupSteps                 int     // training steps of the set-up Prepare
	prepareSteps               int     // training steps of the prepare workload
	throttleBps                float64 // play_int8_delta downlink
	minOps                     int     // timed viewer sessions per run, at least
	lightReps                  int     // repetitions of the cheap standalone probes
}

var (
	reference = profile{
		name: "reference", w: 480, h: 272, cues: 6, minFrames: 27, maxFrames: 27,
		model: modelDCSR1, setupSteps: 60, prepareSteps: 200,
		throttleBps: 250000, minOps: 2, lightReps: 5,
	}
	tiny = profile{
		name: "tiny", w: 80, h: 48, cues: 4, minFrames: 5, maxFrames: 9,
		model: modelTiny, setupSteps: 10, prepareSteps: 20,
		throttleBps: 250000, minOps: 1, lightReps: 2,
	}
)

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	outDir   string
}

// run is one benchmark run: its inputs, the values it has measured so
// far and the tally of operations.
type run struct {
	cfg    config
	prof   profile
	values map[string]float64
	notes  map[string]string // sample size and quartiles beside a median
	tr     *tracer

	attempted, failed int
	problems          []string
}

func newRun(cfg config, prof profile) *run {
	r := &run{cfg: cfg, prof: prof, values: map[string]float64{}, notes: map[string]string{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// setMedian records the median of s times scale, with n and quartiles
// beside it.
func (r *run) setMedian(name string, s sample, scale float64) {
	r.set(name, s.median()*scale)
	r.notes[name] = fmt.Sprintf("n=%d q1=%.6g q3=%.6g", len(s), s.quantile(0.25)*scale, s.quantile(0.75)*scale)
}

// op tallies one operation or self-check; a false ok is a failure.
func (r *run) op(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// calibrate times a fixed pure-Go loop; the runs before and after a
// workload bracket it, and a drift between them marks the result noisy.
func calibrate() float64 {
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		t := time.Now()
		x := uint64(rep + 1)
		for i := 0; i < 20_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		if x == 0 { // keeps the loop observable
			best = 0
		}
		if d := ms(time.Since(t)); d < best {
			best = d
		}
	}
	return best
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// env is the header printed before the result line.
type env struct {
	Workload   string            `json:"workload"`
	Profile    string            `json:"profile"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	CPU        string            `json:"cpu"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Go         string            `json:"go"`
	Commit     string            `json:"commit"`
	CalibMS    [2]float64        `json:"calib_ms"`
	Noisy      bool              `json:"noisy"`
	Samples    map[string]string `json:"samples,omitempty"`
	Problems   []string          `json:"problems,omitempty"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// report prints every metric by name with its unit, then the header and
// the result line.
func (r *run) report(calib [2]float64) result {
	defs := endToEnd
	if r.cfg.trace {
		defs = perLayer
	}
	res := result{Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !r.cfg.trace {
			// An end-to-end metric is never 0: a missing or
			// non-finite one is a failed check.
			r.op(ok && v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v), "metric %s = %v", d.name, v)
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = 0
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		fmt.Printf("%-34s %16.6f %-8s %s\n", d.name, v, d.unit, r.notes[d.name])
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0
	noisy := math.Abs(calib[1]-calib[0]) > 0.10*calib[0]
	header := env{
		Workload: r.cfg.workload, Profile: r.prof.name, Seed: r.cfg.seed,
		Seconds: r.cfg.seconds.Seconds(), Trace: r.cfg.trace,
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: gitCommit(), CalibMS: calib, Noisy: noisy,
		Samples: r.notes, Problems: r.problems,
	}
	printJSON(struct {
		Env env `json:"env"`
	}{header})
	printJSON(res)
	return res
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// repoRoot finds the directory holding BENCHMARK.json: the working
// directory (the driver's case) or its parent (go run -C bench).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// execute runs one workload and prints its report.
func execute(cfg config, prof profile) (result, error) {
	r := newRun(cfg, prof)
	var fn func(context.Context, *run) error
	for _, w := range workloads {
		if w.name == cfg.workload {
			fn = w.run
		}
	}
	if fn == nil {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	fmt.Printf("# workload=%s profile=%s seed=%d seconds=%g trace=%v\n",
		cfg.workload, prof.name, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	var calib [2]float64
	calib[0] = calibrate()
	if err := fn(context.Background(), r); err != nil {
		return result{}, err
	}
	calib[1] = calibrate()
	r.set("bench.peak_rss_mb", peakRSSMB())
	r.set("bench.calib_ms", calib[1])
	if r.tr != nil {
		r.set("bench.trace_spans", float64(len(r.tr.spans)))
		path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
		if err := r.tr.write(path); err != nil {
			return result{}, err
		}
	}
	return r.report(calib), nil
}

func main() {
	workload := flag.String("workload", "", "play_f32, play_int8_delta, origin_fetch or prepare")
	seed := flag.Int64("seed", 1, "seed of the generated clip and of the publisher pipeline")
	seconds := flag.Float64("seconds", 10, "length of the measuring window")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics and writes the span trace")
	tinyFlag := flag.Bool("tiny", false, "80x48 inputs (for tests; numbers mean nothing)")
	compare := flag.Bool("compare", false, "compare two files of run outputs: -compare a b")
	flag.Parse()

	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files"))
		}
		regressed, err := compareFiles(os.Stdout, filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	// The timed code runs on one core: on the shared two-vCPU boxes this
	// is developed on, the second vCPU's share swings between nothing and
	// everything from minute to minute, which moves any two-thread timing
	// by up to 1.6x while one thread holds within a few percent. Set
	// GOMAXPROCS in the environment to measure at another width.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
	prof := reference
	if *tinyFlag {
		prof = tiny
	}
	cfg := config{
		workload: *workload, seed: *seed, trace: *trace != 0,
		seconds: time.Duration(*seconds * float64(time.Second)),
		outDir:  filepath.Join(root, "bench", "out"),
	}
	res, err := execute(cfg, prof)
	if err != nil {
		fatal(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
