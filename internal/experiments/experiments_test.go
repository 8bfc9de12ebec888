package experiments

import (
	"math"
	"testing"
	"time"

	"dcsr/internal/device"
	"dcsr/internal/video"
)

// fastEval returns a reduced evaluation config for tests: two genres and
// lighter training than the bench defaults, but the same pipeline.
func fastEval() EvalConfig {
	cfg := DefaultEvalConfig()
	cfg.Genres = []video.Genre{video.GenreNews, video.GenreDocumentary}
	cfg.MicroSteps = 250
	cfg.BigSteps = 400
	return cfg
}

func TestFig1aShape(t *testing.T) {
	_, data := Fig1a()
	if len(data) != 3 {
		t.Fatalf("expected 3 resolutions, got %d", len(data))
	}
	for _, d := range data {
		if d.FPS >= 15 {
			t.Errorf("%s: big model at %.1f FPS, paper reports <15", d.Res.Name, d.FPS)
		}
	}
	// Higher resolution → slower inference.
	if !(data[0].FPS > data[1].FPS && data[1].FPS > data[2].FPS) {
		t.Errorf("FPS not decreasing with resolution: %+v", data)
	}
}

func TestFig1bShape(t *testing.T) {
	_, sizes := Fig1b()
	if len(sizes) != 3 {
		t.Fatal("expected 3 sizes")
	}
	if !(sizes[0] < sizes[1] && sizes[1] < sizes[2]) {
		t.Errorf("model size not growing with resolution: %v", sizes)
	}
	// Paper Fig 1(b): roughly 5 → 20 MB.
	lo := float64(sizes[0]) / (1 << 20)
	hi := float64(sizes[2]) / (1 << 20)
	if lo < 2 || lo > 15 || hi < 10 || hi > 30 {
		t.Errorf("sizes out of the paper's ballpark: %.1f MB … %.1f MB", lo, hi)
	}
}

func TestTable1Shape(t *testing.T) {
	_, sizes := Table1()
	if len(sizes) != 25 {
		t.Fatalf("expected 5x5 grid, got %d cells", len(sizes))
	}
	// The flagship cell (64 filters, 16 ResBlocks — the paper's red big
	// model) reports 16.7 MB; ours must land close.
	got := float64(sizes[[2]int{64, 16}]) / (1 << 20)
	if math.Abs(got-16.7) > 3 {
		t.Errorf("64f×16RB checkpoint %.1f MB, paper reports 16.7", got)
	}
	// Monotone in both axes.
	for _, nf := range []int{4, 8, 16, 32} {
		for _, rb := range []int{4, 8, 12, 16} {
			if sizes[[2]int{nf, rb}] >= sizes[[2]int{nf * 2, rb}] {
				t.Errorf("size not monotone in filters at (%d,%d)", nf, rb)
			}
			if sizes[[2]int{nf, rb}] >= sizes[[2]int{nf, rb + 4}] {
				t.Errorf("size not monotone in resblocks at (%d,%d)", nf, rb)
			}
		}
	}
}

func TestFig8PanelsShape(t *testing.T) {
	for _, res := range []device.Resolution{device.Res720p, device.Res1080p, device.Res4K} {
		_, series := Fig8FPS(res, 5)
		byName := map[string]FPSSeries{}
		for _, s := range series {
			byName[s.Method] = s
		}
		// dcSR-1 meets 30 FPS at n=1 at every resolution.
		if byName["dcSR-1"].FPS[0] < 30 {
			t.Errorf("%s: dcSR-1 n=1 at %.1f FPS", res.Name, byName["dcSR-1"].FPS[0])
		}
		// dcSR-2/3 achieve at least 5 FPS everywhere (paper: "at least
		// 5 FPS in a higher configuration").
		for _, m := range []string{"dcSR-2", "dcSR-3"} {
			for i, fps := range byName[m].FPS {
				if fps < 5 {
					t.Errorf("%s %s n=%d: %.1f FPS < 5", res.Name, m, i+1, fps)
				}
			}
		}
		switch res.Name {
		case "720p", "1080p":
			if byName["NAS"].OOM {
				t.Errorf("%s: NAS should run (no OOM)", res.Name)
			}
			for _, fps := range byName["NAS"].FPS {
				if fps >= 1 {
					t.Errorf("%s: NAS at %.2f FPS, paper reports <1", res.Name, fps)
				}
			}
		case "4K":
			// Paper: NAS and NEMO cannot even run at 4K (OOM).
			if !byName["NAS"].OOM || !byName["NEMO"].OOM {
				t.Error("4K: NAS/NEMO should OOM on the Jetson")
			}
			if byName["dcSR-1"].OOM {
				t.Error("4K: dcSR-1 must not OOM")
			}
		}
	}
}

func TestFig8PowerShape(t *testing.T) {
	_, results, traces := Fig8Power()
	byName := map[string]PowerResult{}
	for _, r := range results {
		byName[r.Method] = r
	}
	if !(byName["dcSR-1"].EnergyJ < byName["NEMO"].EnergyJ && byName["NEMO"].EnergyJ < byName["NAS"].EnergyJ) {
		t.Errorf("energy ordering violated: %+v", results)
	}
	if byName["dcSR-1"].PeakW > 2.2 {
		t.Errorf("dcSR peak %.2f W, paper reports ≤2 W", byName["dcSR-1"].PeakW)
	}
	if !byName["NAS"].Sustained {
		t.Error("NAS trace should be sustained (it infers every frame)")
	}
	if byName["NEMO"].Sustained {
		t.Error("NEMO trace should spike periodically")
	}
	for name, tr := range traces {
		if len(tr) == 0 {
			t.Errorf("%s: empty trace", name)
		}
	}
}

func TestFig12Shape(t *testing.T) {
	for _, p := range []device.Profile{device.Laptop, device.Desktop} {
		_, series := Fig12FPS(p, 10)
		byName := map[string]FPSSeries{}
		for _, s := range series {
			byName[s.Method] = s
		}
		// dcSR meets 30 FPS regardless of configuration and n (paper §A.2).
		for _, m := range []string{"dcSR-1", "dcSR-2", "dcSR-3"} {
			for i, fps := range byName[m].FPS {
				if fps < 30 {
					t.Errorf("%s %s n=%d: %.1f FPS < 30", p.Name, m, i+1, fps)
				}
			}
		}
		// NEMO only under few instances; NAS never.
		if byName["NEMO"].FPS[0] < 30 {
			t.Errorf("%s NEMO n=1: %.1f FPS", p.Name, byName["NEMO"].FPS[0])
		}
		if byName["NEMO"].FPS[9] >= 30 {
			t.Errorf("%s NEMO n=10: %.1f FPS, should be below 30", p.Name, byName["NEMO"].FPS[9])
		}
		for _, fps := range byName["NAS"].FPS {
			if fps >= 30 {
				t.Errorf("%s NAS meets 30 FPS; it must not", p.Name)
			}
		}
	}
}

func TestFig9Fig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("trained experiment in short mode")
	}
	r, err := RunFig9(fastEval())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range r.Videos {
		dcsr := v.Methods["dcSR"]
		nas := v.Methods["NAS"]
		nemo := v.Methods["NEMO"]
		low := v.Methods["LOW"]
		// All SR methods beat the unenhanced LOW baseline.
		if dcsr.PSNR <= low.PSNR {
			t.Errorf("%s: dcSR %.2f dB not above LOW %.2f dB", v.Genre, dcsr.PSNR, low.PSNR)
		}
		// Paper: dcSR/NEMO within 1 dB PSNR and 0.05 SSIM of NAS.
		if nas.PSNR-dcsr.PSNR > 1 {
			t.Errorf("%s: dcSR %.2f dB more than 1 dB below NAS %.2f dB", v.Genre, dcsr.PSNR, nas.PSNR)
		}
		if nas.PSNR-nemo.PSNR > 1 {
			t.Errorf("%s: NEMO %.2f dB more than 1 dB below NAS %.2f dB", v.Genre, nemo.PSNR, nas.PSNR)
		}
		if nas.SSIM-dcsr.SSIM > 0.05 {
			t.Errorf("%s: dcSR SSIM %.3f more than 0.05 below NAS %.3f", v.Genre, dcsr.SSIM, nas.SSIM)
		}
		// Fig 10: dcSR downloads strictly less than NAS and NEMO; LOW least.
		if dcsr.Bytes >= nas.Bytes || dcsr.Bytes >= nemo.Bytes {
			t.Errorf("%s: dcSR bytes %d not below NAS %d / NEMO %d", v.Genre, dcsr.Bytes, nas.Bytes, nemo.Bytes)
		}
		if low.Bytes >= dcsr.Bytes {
			t.Errorf("%s: LOW bytes %d not below dcSR %d", v.Genre, low.Bytes, dcsr.Bytes)
		}
		// Training speedup: micro-model training is cheaper (paper: ≈3×).
		if v.BigTrainFLOPs/v.DcSRTrainFLOPs < 1.5 {
			t.Errorf("%s: training speedup only %.1fx", v.Genre, v.BigTrainFLOPs/v.DcSRTrainFLOPs)
		}
	}
	if r.MeanSaving() < 0.2 {
		t.Errorf("mean bandwidth saving %.0f%%, paper reports ≈25%%", r.MeanSaving()*100)
	}
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("trained experiment in short mode")
	}
	cfg := fastEval()
	_, bestK, curve := Fig5(cfg)
	if len(curve) < 4 {
		t.Fatalf("sweep too short: %d points", len(curve))
	}
	// The video has 5 generative scenes; the silhouette peak should land
	// near that (clustering can merge visually similar scenes).
	if bestK < 3 || bestK > 8 {
		t.Errorf("silhouette peak at K=%d for a 5-scene video", bestK)
	}
	for _, s := range curve {
		if s < -1 || s > 1 {
			t.Fatalf("silhouette %v out of range", s)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("trained experiment in short mode")
	}
	cfg := fastEval()
	cfg.MicroSteps = 350
	_, losses := Fig11(cfg)
	if len(losses) != 4 {
		t.Fatalf("expected 4 sizes, got %d", len(losses))
	}
	// Paper Fig 11: training loss grows with data size. Allow local noise
	// but require the ends to be ordered.
	if losses[0] >= losses[len(losses)-1] {
		t.Errorf("training loss did not grow with data size: %v", losses)
	}
}

func TestFig1cShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trained experiment in short mode")
	}
	cfg := fastEval()
	_, st, perFrame := Fig1c(cfg)
	if len(perFrame) == 0 {
		t.Fatal("no per-frame PSNR")
	}
	// Paper Fig 1(c): one big model cannot serve all frames uniformly —
	// per-frame quality spreads by several dB.
	if st.Max-st.Min < 2 {
		t.Errorf("per-frame PSNR spread %.2f dB, paper shows ≈5 dB", st.Max-st.Min)
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("trained experiment in short mode")
	}
	cfg := fastEval()
	tbl, purities := AblationFeatures(cfg)
	if len(tbl.Rows) != 3 {
		t.Fatalf("features ablation rows: %d", len(tbl.Rows))
	}
	if purities["VAE (trained)"] < 0.5 {
		t.Errorf("trained VAE purity %.2f too low to be useful", purities["VAE (trained)"])
	}
	_, globalTotal, lloydTotal := AblationGlobalKMeans(cfg)
	if globalTotal > lloydTotal+1e-6 {
		t.Errorf("global k-means total inertia %.3f worse than Lloyd %.3f", globalTotal, lloydTotal)
	}
	_, bytesBy := AblationSplit(cfg)
	if bytesBy["variable (dcSR)"] >= bytesBy["fixed"] {
		t.Errorf("variable split bytes %d not below fixed %d", bytesBy["variable (dcSR)"], bytesBy["fixed"])
	}
}

func TestExperimentABRShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trained experiment in short mode")
	}
	_, res := ExperimentABR(fastEval())
	sr := "sr-aware (dcSR)"
	// The SR-aware policy must deliver at least the displayed quality of
	// the throughput rule (it sees everything the rate rule sees, plus the
	// enhancement dimension) without pathological stalling.
	if res.SeenPSNR[sr] < res.SeenPSNR["rate-based"]-0.1 {
		t.Errorf("SR-aware seen PSNR %.2f below rate-based %.2f", res.SeenPSNR[sr], res.SeenPSNR["rate-based"])
	}
	if res.QoE[sr] < res.QoE["rate-based"]-0.5 {
		t.Errorf("SR-aware QoE %.2f materially below rate-based %.2f", res.QoE[sr], res.QoE["rate-based"])
	}
	if res.Rebuffer[sr] > res.Rebuffer["rate-based"]+5 {
		t.Errorf("SR-aware rebuffered %.1fs vs rate-based %.1fs", res.Rebuffer[sr], res.Rebuffer["rate-based"])
	}
}

func TestExperimentUpscaleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trained experiment in short mode")
	}
	_, res := ExperimentUpscale(fastEval())
	if len(res.SRPSNR) == 0 {
		t.Fatal("no videos evaluated")
	}
	for g, sr := range res.SRPSNR {
		if sr <= res.BicubicPSNR[g] {
			t.Errorf("%s: x2 SR %.2f dB not above bicubic %.2f dB", g, sr, res.BicubicPSNR[g])
		}
	}
}

func TestAblationHalfPel(t *testing.T) {
	_, bytesBy, psnrBy := AblationHalfPel(fastEval())
	// Half-pel must improve the rate-distortion tradeoff on high-motion
	// content: it may spend bytes to buy quality (or vice versa), but must
	// never lose on both axes, and byte growth must be paid for by a
	// proportionate quality gain.
	t.Logf("half-pel %d B / %.2f dB vs full-pel %d B / %.2f dB",
		bytesBy["half-pel"], psnrBy["half-pel"], bytesBy["full-pel"], psnrBy["full-pel"])
	dBytes := float64(bytesBy["half-pel"])/float64(bytesBy["full-pel"]) - 1
	dPSNR := psnrBy["half-pel"] - psnrBy["full-pel"]
	if dBytes > 0 && dPSNR < dBytes*2 { // ≥2 dB per doubled size is a generous floor
		t.Errorf("half-pel spent %.0f%% more bytes for only %.2f dB", dBytes*100, dPSNR)
	}
	if dBytes >= 0.5 || (dBytes > 0 && dPSNR <= 0) {
		t.Errorf("half-pel RD regressed: %+.0f%% bytes, %+.2f dB", dBytes*100, dPSNR)
	}
}

func TestAblationQuantization(t *testing.T) {
	if testing.Short() {
		t.Skip("trained experiment in short mode")
	}
	_, psnrs, sizes := AblationQuantization(fastEval())
	if sizes["int8"] >= sizes["fp32"] {
		t.Errorf("size ordering violated: %v", sizes)
	}
	if psnrs["fp32"]-psnrs["int8"] > 0.5 {
		t.Errorf("int8 lost %.3f dB", psnrs["fp32"]-psnrs["int8"])
	}
}

func TestAblationPropagation(t *testing.T) {
	if testing.Short() {
		t.Skip("trained experiment in short mode")
	}
	cfg := fastEval()
	_, psnrs := AblationPropagation(cfg)
	if psnrs["gated delta (default)"] <= psnrs["LOW"] {
		t.Errorf("gated delta %.2f dB not above LOW %.2f dB", psnrs["gated delta (default)"], psnrs["LOW"])
	}
	// Both propagation modes must at least roughly agree (they share the
	// same I-frame enhancement; they differ only in how it spreads).
	if diff := psnrs["gated delta (default)"] - psnrs["replace (paper Fig 6)"]; diff < -0.5 {
		t.Errorf("gated delta %.2f dB substantially below replace %.2f dB", psnrs["gated delta (default)"], psnrs["replace (paper Fig 6)"])
	}
}

func TestExperimentFaultsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trained experiment in short mode")
	}
	cfg := fastEval()
	cfg.MicroSteps = 60
	_, res, err := ExperimentFaults(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 18 {
		t.Fatalf("sweep produced %d cells, want 18", len(res.Cells))
	}
	clean := res.Cell("all", 0, 0)
	if clean == nil || !clean.Completed || clean.Degraded != 0 || clean.RetryCount != 0 {
		t.Fatalf("fault-free baseline cell wrong: %+v", clean)
	}
	for _, c := range res.Cells {
		if c.Scope == "all" && c.DropRate == 0 {
			if !c.Completed || c.Degraded != 0 || c.Stall != 0 {
				t.Errorf("zero-drop cell retries=%d degraded despite no faults: %+v", c.Retries, c)
			}
			continue
		}
		// Under faults, recovery work must be visible whenever the session
		// survived past its first drop.
		if c.Completed && c.Faults > 0 && c.Retries > 0 && c.RetryCount == 0 {
			t.Errorf("cell scope=%s drop=%.2f retries=%d completed through %d drops without retrying",
				c.Scope, c.DropRate, c.Retries, c.Faults)
		}
		// A completed faulty session must still deliver watchable quality:
		// PSNR within reach of the clean baseline (degraded segments only
		// lose the SR delta, not the video).
		if c.Completed && c.PSNR < clean.PSNR-6 {
			t.Errorf("cell scope=%s drop=%.2f retries=%d PSNR %.2f collapsed vs clean %.2f",
				c.Scope, c.DropRate, c.Retries, c.PSNR, clean.PSNR)
		}
	}
	// With a healthy retry budget the high-drop cell should complete.
	if c := res.Cell("all", 0.25, 3); c == nil || !c.Completed {
		t.Errorf("drop=0.25 retries=3 should survive, got %+v", c)
	}
	// Model-only drops never abort — every cell completes, and a total
	// model outage with no retry budget degrades every model fetch while
	// still delivering the (unenhanced) video.
	for _, c := range res.Cells {
		if c.Scope == "model" && !c.Completed {
			t.Errorf("model-scope cell drop=%.2f retries=%d aborted; model faults must degrade, not kill", c.DropRate, c.Retries)
		}
		// The scope's hook has to recognise model requests on the wire: at
		// drop = 1 every one of them is dropped, whatever the budget.
		if c.Scope == "model" && c.DropRate == 1 && (c.Faults == 0 || c.Degraded == 0) {
			t.Errorf("model-scope cell drop=1 retries=%d dropped %d responses, degraded %d segments; want both > 0",
				c.Retries, c.Faults, c.Degraded)
		}
	}
	if c := res.Cell("model", 1, 0); c == nil || !c.Completed || c.Degraded == 0 {
		t.Errorf("total model outage should complete degraded, got %+v", c)
	} else if c.PSNR >= clean.PSNR {
		t.Errorf("degraded playback PSNR %.2f not below clean %.2f", c.PSNR, clean.PSNR)
	}
}

func TestExperimentSwarmShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trained experiment in short mode")
	}
	cfg := fastEval()
	cfg.MicroSteps = 60
	// Reduced scale for CI: enough sessions against a tight admission
	// budget to guarantee contention, at a fraction of the bench's 1000
	// sessions and 2s window.
	sc := SwarmConfig{Sessions: 150, MaxInflight: 8, Duration: 400 * time.Millisecond, Ramp: 100 * time.Millisecond}
	_, res, err := ExperimentSwarm(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance invariant: overload sheds typed rejections that the
	// retry policy absorbs — never hard client errors.
	if res.HardErrors != 0 {
		t.Fatalf("swarm recorded %d hard errors; overload must shed, not fail", res.HardErrors)
	}
	if res.Sheds == 0 {
		t.Errorf("%d sessions against max-inflight %d produced no sheds", sc.Sessions, sc.MaxInflight)
	}
	if res.ClientSheds == 0 || int64(res.ClientSheds) > res.Sheds {
		t.Errorf("client-observed sheds %d inconsistent with server's %d", res.ClientSheds, res.Sheds)
	}
	if res.ShedRate <= 0 || res.ShedRate >= 1 {
		t.Errorf("shed rate %.3f out of (0,1)", res.ShedRate)
	}
	if res.Drops == 0 {
		t.Error("faultnet injected no drops at the default rate")
	}
	if res.InflightPeak <= 0 || res.InflightPeak > int64(sc.MaxInflight) {
		t.Errorf("inflight peak %d outside (0, %d]", res.InflightPeak, sc.MaxInflight)
	}
	// Per-op accounting: every session lists the directory once and
	// fetches at least one manifest; half refetch after selecting the
	// non-default video.
	if res.Directory.Count != sc.Sessions {
		t.Errorf("directory ops %d, want %d", res.Directory.Count, sc.Sessions)
	}
	if want := sc.Sessions + sc.Sessions/2; res.Manifest.Count != want {
		t.Errorf("manifest ops %d, want %d", res.Manifest.Count, want)
	}
	for _, op := range []struct {
		name string
		st   SwarmOpStats
	}{{"manifest", res.Manifest}, {"directory", res.Directory}, {"segment", res.Segment}, {"model", res.Model}} {
		if op.st.Count == 0 {
			t.Errorf("%s: no successful ops", op.name)
			continue
		}
		if op.st.P50ms <= 0 || op.st.P99ms < op.st.P50ms || op.st.Maxms < op.st.P99ms {
			t.Errorf("%s latency summary inconsistent: %+v", op.name, op.st)
		}
	}
	// Contention plus a fair scheduler should still serve sessions
	// evenly; Jain's index collapses toward 1/n only when a few sessions
	// monopolize the server.
	if res.FairnessJain < 0.5 || res.FairnessJain > 1.0000001 {
		t.Errorf("Jain fairness %.3f out of the healthy range", res.FairnessJain)
	}
	// The window bounds the run: everything beyond it is the slowest
	// session's final in-flight op, not unbounded queueing.
	if res.ElapsedSec < res.WindowSec || res.ElapsedSec > res.WindowSec+30 {
		t.Errorf("elapsed %.2fs implausible for a %.2fs window", res.ElapsedSec, res.WindowSec)
	}
	if res.Videos != 2 || res.Sessions != sc.Sessions {
		t.Errorf("result header wrong: %+v", res)
	}
}

func TestExperimentCacheBudgetShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trained experiment in short mode")
	}
	cfg := fastEval()
	cfg.MicroSteps = 60
	_, res, err := ExperimentCacheBudget(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 5 {
		t.Fatalf("sweep produced %d cells, want 5", len(res.Cells))
	}
	byLabel := map[string]CacheBudgetCell{}
	for _, c := range res.Cells {
		byLabel[c.Label] = c
		// The budget changes download accounting only, never playback.
		if c.Degraded != 0 {
			t.Errorf("budget %q degraded %d segments; evictions must re-download, not degrade", c.Label, c.Degraded)
		}
		if c.Enhanced != res.Cells[0].Enhanced {
			t.Errorf("budget %q enhanced %d frames, want %d (playback must not change)",
				c.Label, c.Enhanced, res.Cells[0].Enhanced)
		}
		if c.ResidentBytes > c.Budget && c.Budget > 0 {
			t.Errorf("budget %q resident %d B exceeds budget %d B", c.Label, c.ResidentBytes, c.Budget)
		}
	}
	unbounded := byLabel["unbounded"]
	if unbounded.Evictions != 0 {
		t.Errorf("unbounded cache evicted %d models", unbounded.Evictions)
	}
	if off := byLabel["off"]; off.CacheHits != 0 || off.ResidentBytes != 0 {
		t.Errorf("disabled cache recorded hits=%d resident=%d", off.CacheHits, off.ResidentBytes)
	}
	// An ample budget must reproduce the unbounded accounting exactly.
	if all := byLabel["all models"]; all.CacheHits != unbounded.CacheHits || all.Downloads != unbounded.Downloads {
		t.Errorf("ample budget hits=%d downloads=%d, want unbounded's %d/%d",
			all.CacheHits, all.Downloads, unbounded.CacheHits, unbounded.Downloads)
	}
	// A single-model budget on a multi-model clip must trade evictions
	// for extra downloads — never fewer bytes than unbounded needs.
	if one := byLabel["1 model"]; res.ModelCount > 1 {
		if one.Evictions == 0 {
			t.Errorf("one-model budget over %d models produced no evictions", res.ModelCount)
		}
		if one.ModelBytes < unbounded.ModelBytes {
			t.Errorf("one-model budget downloaded %d model B, less than unbounded's %d", one.ModelBytes, unbounded.ModelBytes)
		}
	}
}
