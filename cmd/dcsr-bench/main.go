// Command dcsr-bench regenerates the tables and figures of the dcSR paper
// (CoNEXT '21) as text tables. With no flags it runs everything; use
// -only to select a subset.
//
// Usage:
//
//	dcsr-bench                 # all experiments (several minutes)
//	dcsr-bench -only fig8,fig10
//	dcsr-bench -fast           # trained experiments at reduced budgets
//	dcsr-bench -list
//	dcsr-bench -fast -json out.json   # machine-readable run report
//
// With -json, a report is written containing every experiment's name
// and wall time plus a snapshot of the pipeline metrics the run
// recorded (prepare/train counters, cache hit/miss, codec enhance
// latency — see the obs package doc for the stable names). Each
// histogram entry also carries its rolling window (`window_count`,
// `rate`, `window_p50/p95/p99`) and `counter_rates` each counter's rate,
// covering only the last 30 s of the run — the live-traffic view of
// the same signals the lifetime values average over the whole run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"dcsr/internal/device"
	"dcsr/internal/experiments"
	"dcsr/internal/obs"
	"dcsr/internal/video"
)

// jsonReport is the -json output document. Header pins the machine and
// runtime the numbers were measured on: perf rows are only comparable
// between reports with matching headers.
type jsonReport struct {
	Header      benchHeader              `json:"header"`
	Fast        bool                     `json:"fast"`
	Only        string                   `json:"only,omitempty"`
	Experiments []jsonExperiment         `json:"experiments"`
	Swarm       *experiments.SwarmResult `json:"swarm,omitempty"`
	Metrics     obs.Snapshot             `json:"metrics"`
}

type jsonExperiment struct {
	Name    string  `json:"name"`
	Desc    string  `json:"desc"`
	Seconds float64 `json:"seconds"`
}

type experiment struct {
	name string
	desc string
	run  func(cfg experiments.EvalConfig)
}

func main() {
	only := flag.String("only", "", "comma-separated experiment names (see -list)")
	fast := flag.Bool("fast", false, "reduced training budgets for the trained experiments")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonOut := flag.String("json", "", "write a JSON run report (experiments + metrics snapshot) to this file, or - for stdout (tables move to stderr)")
	flag.Parse()

	cfg := experiments.DefaultEvalConfig()
	cfg.Obs = obs.New()
	if *fast {
		cfg.MicroSteps = 150
		cfg.BigSteps = 250
		cfg.Genres = []video.Genre{video.GenreNews, video.GenreSports}
	}

	var swarmRes *experiments.SwarmResult

	var fig9 *experiments.Fig9Result
	getFig9 := func() *experiments.Fig9Result {
		if fig9 == nil {
			var err error
			fig9, err = experiments.RunFig9(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dcsr-bench: %v\n", err)
				os.Exit(1)
			}
		}
		return fig9
	}

	exps := []experiment{
		{"fig1a", "big-model inference rate vs resolution", func(experiments.EvalConfig) {
			t, _ := experiments.Fig1a()
			fmt.Println(t)
		}},
		{"fig1b", "big-model size vs resolution", func(experiments.EvalConfig) {
			t, _ := experiments.Fig1b()
			fmt.Println(t)
		}},
		{"fig1c", "per-frame quality variance of one big model", func(c experiments.EvalConfig) {
			t, st, _ := experiments.Fig1c(c)
			fmt.Println(t)
			fmt.Printf("per-frame PSNR: mean %.2f dB, min %.2f, max %.2f, spread %.2f dB\n\n",
				st.Mean, st.Min, st.Max, st.Max-st.Min)
		}},
		{"table1", "model size over (n_f, n_RB) grid", func(experiments.EvalConfig) {
			t, _ := experiments.Table1()
			fmt.Println(t)
		}},
		{"fig5", "silhouette coefficient vs K", func(c experiments.EvalConfig) {
			t, bestK, _ := experiments.Fig5(c)
			fmt.Println(t)
			fmt.Printf("selected K* = %d\n\n", bestK)
		}},
		{"fig8", "Jetson FPS panels (720p/1080p/4K)", func(experiments.EvalConfig) {
			for _, r := range []device.Resolution{device.Res720p, device.Res1080p, device.Res4K} {
				t, _ := experiments.Fig8FPS(r, 5)
				fmt.Println(t)
			}
		}},
		{"fig8d", "Jetson power & energy", func(experiments.EvalConfig) {
			t, _, _ := experiments.Fig8Power()
			fmt.Println(t)
		}},
		{"fig9", "PSNR/SSIM across the six genre videos", func(c experiments.EvalConfig) {
			psnr, ssim := getFig9().QualityTables()
			fmt.Println(psnr)
			fmt.Println(ssim)
		}},
		{"fig10", "normalized network usage", func(c experiments.EvalConfig) {
			r := getFig9()
			fmt.Println(r.NetworkTable())
			fmt.Printf("mean dcSR saving vs NAS: %.0f%%\n\n", r.MeanSaving()*100)
		}},
		{"fig11", "training loss vs data size", func(c experiments.EvalConfig) {
			t, _ := experiments.Fig11(c)
			fmt.Println(t)
		}},
		{"fig12", "laptop/desktop 4K FPS panels", func(experiments.EvalConfig) {
			for _, p := range []device.Profile{device.Laptop, device.Desktop} {
				t, _ := experiments.Fig12FPS(p, 10)
				fmt.Println(t)
			}
		}},
		{"speedup", "micro vs big training cost", func(c experiments.EvalConfig) {
			r := getFig9()
			fmt.Println(r.SpeedupTable())
			fmt.Printf("mean training speedup: %.1fx\n\n", r.MeanSpeedup())
		}},
		{"upscale", "x2 super-resolution vs bicubic", func(c experiments.EvalConfig) {
			t, _ := experiments.ExperimentUpscale(c)
			fmt.Println(t)
		}},
		{"faults", "fault-injected streaming: drop rate × retry budget", func(c experiments.EvalConfig) {
			t, _, err := experiments.ExperimentFaults(c)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dcsr-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(t)
		}},
		{"swarm", "fleet load: 1000 concurrent clients vs admission control + faultnet loss", func(c experiments.EvalConfig) {
			t, r, err := experiments.ExperimentSwarm(c, experiments.SwarmConfig{})
			if err != nil {
				fmt.Fprintf(os.Stderr, "dcsr-bench: %v\n", err)
				os.Exit(1)
			}
			swarmRes = r
			fmt.Println(t)
			fmt.Printf("served %d requests in %.2fs (shed %d, %d client retries, %d reconnects, peak inflight %d)\n\n",
				r.Requests, r.ElapsedSec, r.Sheds, r.Retries, r.Reconnects, r.InflightPeak)
		}},
		{"quant", "int8 model shipping: float32 master vs gate-admitted int8 grids, bytes + playback PSNR", func(c experiments.EvalConfig) {
			t, psnrs, sizes, _, err := experiments.AblationQuantization(c)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dcsr-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(t)
			fmt.Printf("int8 ships %.0f%% fewer model bytes for %.2f dB of playback PSNR\n\n",
				100*(1-float64(sizes["int8"])/float64(sizes["fp32"])), psnrs["fp32"]-psnrs["int8"])
		}},
		{"ablations", "VAE features / global k-means / split / propagation / half-pel ablations", func(c experiments.EvalConfig) {
			t1, _ := experiments.AblationFeatures(c)
			fmt.Println(t1)
			t2, _, _ := experiments.AblationGlobalKMeans(c)
			fmt.Println(t2)
			t3, _ := experiments.AblationSplit(c)
			fmt.Println(t3)
			t4, _ := experiments.AblationPropagation(c)
			fmt.Println(t4)
			t5, _, _ := experiments.AblationHalfPel(c)
			fmt.Println(t5)
		}},
	}

	if *list {
		for _, e := range exps {
			fmt.Printf("%-10s %s\n", e.name, e.desc)
		}
		return
	}

	var known []string
	for _, e := range exps {
		known = append(known, e.name)
	}
	selected := map[string]bool{}
	if *only != "" {
		for _, n := range strings.Split(*only, ",") {
			n = strings.TrimSpace(n)
			if !slices.Contains(known, n) {
				fmt.Fprintf(os.Stderr, "dcsr-bench: unknown experiment %q in -only; known: %s\n", n, strings.Join(known, ", "))
				os.Exit(2)
			}
			selected[n] = true
		}
	}
	// With -json -, the report owns stdout; divert the human-readable
	// tables to stderr so the JSON stream stays parseable.
	reportW := os.Stdout
	if *jsonOut == "-" {
		os.Stdout = os.Stderr
		defer func() { os.Stdout = reportW }()
	}
	report := jsonReport{Header: newBenchHeader(), Fast: *fast, Only: *only}
	for _, e := range exps {
		if len(selected) > 0 && !selected[e.name] {
			continue
		}
		start := time.Now()
		fmt.Printf("--- %s: %s ---\n", e.name, e.desc)
		e.run(cfg)
		elapsed := time.Since(start)
		fmt.Printf("(%s finished in %v)\n\n", e.name, elapsed.Round(time.Millisecond))
		report.Experiments = append(report.Experiments, jsonExperiment{
			Name: e.name, Desc: e.desc, Seconds: elapsed.Seconds(),
		})
	}
	if *jsonOut != "" {
		report.Swarm = swarmRes
		report.Metrics = cfg.Obs.Metrics.Snapshot()
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcsr-bench: encoding report: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			if _, err := reportW.Write(data); err != nil {
				fmt.Fprintf(os.Stderr, "dcsr-bench: writing report: %v\n", err)
				os.Exit(1)
			}
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "dcsr-bench: writing report: %v\n", err)
			os.Exit(1)
		}
	}
}
