// Benchmarks regenerating every table and figure of the dcSR paper's
// evaluation. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark prints the corresponding table once (so the bench log is
// a full experiment report) and reports the experiment's headline scalar
// as a custom metric. The trained experiments (Fig 1c, 5, 9/10, 11) run
// the real pipeline at evaluation scale and therefore take seconds to
// minutes per iteration; the device-analytic ones are instantaneous.
package dcsr_test

import (
	"fmt"
	"sync"
	"testing"

	"dcsr/internal/device"
	"dcsr/internal/experiments"
	"dcsr/internal/video"
)

var printOnce sync.Map

// printTable logs a table once per benchmark name, keeping -benchtime
// reruns from flooding the output.
func printTable(b *testing.B, key string, t experiments.Table) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n%s\n", t.String())
	}
}

func BenchmarkFig1aInferenceRate(b *testing.B) {
	var fps float64
	for i := 0; i < b.N; i++ {
		t, data := experiments.Fig1a()
		printTable(b, "fig1a", t)
		fps = data[len(data)-1].FPS
	}
	b.ReportMetric(fps, "4K-FPS")
}

func BenchmarkFig1bModelOverhead(b *testing.B) {
	var mb float64
	for i := 0; i < b.N; i++ {
		t, sizes := experiments.Fig1b()
		printTable(b, "fig1b", t)
		mb = float64(sizes[len(sizes)-1]) / (1 << 20)
	}
	b.ReportMetric(mb, "4K-model-MB")
}

func BenchmarkFig1cQualityVariance(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		t, st, _ := experiments.Fig1c(experiments.DefaultEvalConfig())
		printTable(b, "fig1c", t)
		spread = st.Max - st.Min
	}
	b.ReportMetric(spread, "PSNR-spread-dB")
}

func BenchmarkTable1ModelSizes(b *testing.B) {
	var flagship float64
	for i := 0; i < b.N; i++ {
		t, sizes := experiments.Table1()
		printTable(b, "table1", t)
		flagship = float64(sizes[[2]int{64, 16}]) / (1 << 20)
	}
	b.ReportMetric(flagship, "64fx16RB-MB")
}

func BenchmarkFig5OptimalClusters(b *testing.B) {
	var k float64
	for i := 0; i < b.N; i++ {
		t, bestK, _ := experiments.Fig5(experiments.DefaultEvalConfig())
		printTable(b, "fig5", t)
		k = float64(bestK)
	}
	b.ReportMetric(k, "K*")
}

func benchFig8(b *testing.B, res device.Resolution) {
	var dcsr1 float64
	for i := 0; i < b.N; i++ {
		t, series := experiments.Fig8FPS(res, 5)
		printTable(b, "fig8"+res.Name, t)
		for _, s := range series {
			if s.Method == "dcSR-1" {
				dcsr1 = s.FPS[0]
			}
		}
	}
	b.ReportMetric(dcsr1, "dcSR1-n1-FPS")
}

func BenchmarkFig8aFPS720p(b *testing.B)  { benchFig8(b, device.Res720p) }
func BenchmarkFig8bFPS1080p(b *testing.B) { benchFig8(b, device.Res1080p) }
func BenchmarkFig8cFPS4K(b *testing.B)    { benchFig8(b, device.Res4K) }

func BenchmarkFig8dPower(b *testing.B) {
	var nasRatio float64
	for i := 0; i < b.N; i++ {
		t, results, _ := experiments.Fig8Power()
		printTable(b, "fig8d", t)
		var dcsr, nas float64
		for _, r := range results {
			switch r.Method {
			case "dcSR-1":
				dcsr = r.EnergyJ
			case "NAS":
				nas = r.EnergyJ
			}
		}
		nasRatio = nas / dcsr
	}
	b.ReportMetric(nasRatio, "NAS/dcSR-energy")
}

// fig9Result caches the expensive six-genre run so the Fig 9 and Fig 10
// benchmarks (and the training-speedup bench) share one pipeline pass
// per process.
var (
	fig9Once   sync.Once
	fig9Cached *experiments.Fig9Result
	fig9Err    error
)

func fig9(b *testing.B) *experiments.Fig9Result {
	b.Helper()
	fig9Once.Do(func() {
		fig9Cached, fig9Err = experiments.RunFig9(experiments.DefaultEvalConfig())
	})
	if fig9Err != nil {
		b.Fatal(fig9Err)
	}
	return fig9Cached
}

func BenchmarkFig9Quality(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		r := fig9(b)
		psnr, ssim := r.QualityTables()
		printTable(b, "fig9a", psnr)
		printTable(b, "fig9b", ssim)
		// Headline: worst-case PSNR shortfall of dcSR versus NAS (paper:
		// "no more than 1 dB").
		gap = 0
		for _, v := range r.Videos {
			if d := v.Methods["NAS"].PSNR - v.Methods["dcSR"].PSNR; d > gap {
				gap = d
			}
		}
	}
	b.ReportMetric(gap, "max-dB-below-NAS")
}

func BenchmarkFig10NetworkUsage(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		r := fig9(b)
		printTable(b, "fig10", r.NetworkTable())
		saving = r.MeanSaving() * 100
	}
	b.ReportMetric(saving, "saving-%")
}

func BenchmarkTrainingSpeedup(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		r := fig9(b)
		printTable(b, "speedup", r.SpeedupTable())
		speedup = r.MeanSpeedup()
	}
	b.ReportMetric(speedup, "big/micro-train")
}

func BenchmarkFig11TrainingLoss(b *testing.B) {
	var growth float64
	for i := 0; i < b.N; i++ {
		t, losses := experiments.Fig11(experiments.DefaultEvalConfig())
		printTable(b, "fig11", t)
		growth = losses[len(losses)-1] / losses[0]
	}
	b.ReportMetric(growth, "loss-growth-16v2")
}

func BenchmarkFig12LaptopDesktop(b *testing.B) {
	var worstDcsr float64
	for i := 0; i < b.N; i++ {
		worstDcsr = 1e18
		for _, p := range []device.Profile{device.Laptop, device.Desktop} {
			t, series := experiments.Fig12FPS(p, 10)
			printTable(b, "fig12"+p.Name, t)
			for _, s := range series {
				if s.Method == "dcSR-1" || s.Method == "dcSR-2" || s.Method == "dcSR-3" {
					for _, fps := range s.FPS {
						if fps < worstDcsr {
							worstDcsr = fps
						}
					}
				}
			}
		}
	}
	b.ReportMetric(worstDcsr, "worst-dcSR-FPS")
}

func BenchmarkAblationVAEvsAE(b *testing.B) {
	var purity float64
	for i := 0; i < b.N; i++ {
		t, purities := experiments.AblationFeatures(experiments.DefaultEvalConfig())
		printTable(b, "ablation-feats", t)
		purity = purities["VAE (trained)"]
	}
	b.ReportMetric(purity, "VAE-purity")
}

func BenchmarkAblationGlobalKMeans(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		t, globalTotal, lloydTotal := experiments.AblationGlobalKMeans(experiments.DefaultEvalConfig())
		printTable(b, "ablation-gkm", t)
		ratio = lloydTotal / globalTotal
	}
	b.ReportMetric(ratio, "lloyd/global-inertia")
}

func BenchmarkAblationPropagation(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		t, psnrs := experiments.AblationPropagation(experiments.DefaultEvalConfig())
		printTable(b, "ablation-prop", t)
		gain = psnrs["gated delta (default)"] - psnrs["LOW"]
	}
	b.ReportMetric(gain, "delta-gain-dB")
}

func BenchmarkAblationSplit(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		t, bytesBy := experiments.AblationSplit(experiments.DefaultEvalConfig())
		printTable(b, "ablation-split", t)
		ratio = float64(bytesBy["fixed"]) / float64(bytesBy["variable (dcSR)"])
	}
	b.ReportMetric(ratio, "fixed/variable-bytes")
}

func BenchmarkAblationQuantization(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		t, _, sizes := experiments.AblationQuantization(experiments.DefaultEvalConfig())
		printTable(b, "ablation-quant", t)
		saving = 1 - float64(sizes["int8"])/float64(sizes["fp32"])
	}
	b.ReportMetric(saving*100, "int8-saving-%")
}

func BenchmarkUpscalingMode(b *testing.B) {
	var worstGain float64
	for i := 0; i < b.N; i++ {
		t, res := experiments.ExperimentUpscale(experiments.DefaultEvalConfig())
		printTable(b, "upscale", t)
		worstGain = 1e18
		for g, sr := range res.SRPSNR {
			if gain := sr - res.BicubicPSNR[g]; gain < worstGain {
				worstGain = gain
			}
		}
	}
	b.ReportMetric(worstGain, "worst-gain-dB")
}

func BenchmarkABRIntegration(b *testing.B) {
	var lead float64
	for i := 0; i < b.N; i++ {
		t, res := experiments.ExperimentABR(experiments.DefaultEvalConfig())
		printTable(b, "abr", t)
		lead = res.QoE["sr-aware (dcSR)"] - res.QoE["rate-based"]
	}
	b.ReportMetric(lead, "QoE-lead")
}

// BenchmarkFaultTolerantStreaming sweeps response drop rate against the
// client's retry budget over an injected-fault link (not a paper figure;
// the robustness curve behind docs/OPERATIONS.md). The headline metric is
// the PSNR still delivered at 25% drop with a 3-retry budget.
func BenchmarkFaultTolerantStreaming(b *testing.B) {
	cfg := experiments.DefaultEvalConfig()
	cfg.Genres = []video.Genre{video.GenreNews}
	cfg.MicroSteps = 150
	var worstCasePSNR float64
	for i := 0; i < b.N; i++ {
		t, res, err := experiments.ExperimentFaults(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, "faults", t)
		if c := res.Cell("all", 0.25, 3); c != nil && c.Completed {
			worstCasePSNR = c.PSNR
		}
	}
	b.ReportMetric(worstCasePSNR, "PSNR@drop25-retry3")
}

// BenchmarkEndToEndPrepare measures the full server pipeline on one video
// (not a paper figure; a throughput reference for the library itself).
func BenchmarkEndToEndPrepare(b *testing.B) {
	cfg := experiments.DefaultEvalConfig()
	cfg.MicroSteps = 60
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig9(experiments.EvalConfig{
			W: cfg.W, H: cfg.H, QP: cfg.QP,
			Micro: cfg.Micro, Big: cfg.Big,
			MicroSteps: 60, BigSteps: 60,
			Genres:       []video.Genre{video.GenreNews},
			CueFramesMin: cfg.CueFramesMin, CueFramesMax: cfg.CueFramesMax,
			Seed: cfg.Seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = r
	}
}
