package experiments

import (
	"fmt"

	"dcsr/internal/device"
	"dcsr/internal/edsr"
)

// bigModelFor returns the per-resolution big-model configuration the paper
// trains for NAS/NEMO-style systems: deeper and with larger upscaling
// factors at higher target resolutions (matching the growth of paper
// Fig 1b and the red cell of Table 1).
func bigModelFor(r device.Resolution) edsr.Config {
	switch r.Name {
	case "720p":
		return edsr.Config{Filters: 64, ResBlocks: 8, Scale: 2, ResScale: 0.1}
	case "1080p":
		return edsr.Config{Filters: 64, ResBlocks: 12, Scale: 2, ResScale: 0.1}
	default: // 4K
		return edsr.Config{Filters: 64, ResBlocks: 16, Scale: 4, ResScale: 0.1}
	}
}

// Fig1aData holds the big-model single-frame inference rate per resolution.
type Fig1aData struct {
	Res device.Resolution
	FPS float64
}

// Fig1a reproduces paper Fig 1(a): the inference rate of a NAS-style big
// model is below 15 FPS at every resolution, even on the desktop.
func Fig1a() (Table, []Fig1aData) {
	t := Table{
		Title:  "Fig 1(a): big-model SR inference rate (desktop)",
		Header: []string{"resolution", "inference FPS"},
	}
	var data []Fig1aData
	for _, r := range []device.Resolution{device.Res720p, device.Res1080p, device.Res4K} {
		ti, err := device.Desktop.InferenceTime(edsr.ConfigBig, r.W, r.H)
		if err != nil {
			t.Add(r.Name, "OOM")
			continue
		}
		fps := 1 / ti
		data = append(data, Fig1aData{Res: r, FPS: fps})
		t.Add(r.Name, f1(fps))
	}
	return t, data
}

// Fig1b reproduces paper Fig 1(b): big-model download size grows with the
// target resolution (≈5→20 MB of training checkpoint).
func Fig1b() (Table, []int) {
	t := Table{
		Title:  "Fig 1(b): big-model size vs resolution",
		Header: []string{"resolution", "config", "weights MB", "checkpoint MB"},
	}
	var sizes []int
	for _, r := range []device.Resolution{device.Res720p, device.Res1080p, device.Res4K} {
		cfg := bigModelFor(r)
		m, err := edsr.Build(cfg)
		if err != nil {
			panic(err)
		}
		sizes = append(sizes, m.CheckpointBytes())
		t.Add(r.Name, cfg.String(), mb(m.SizeBytes()), mb(m.CheckpointBytes()))
	}
	return t, sizes
}

// Table1 reproduces paper Table 1: model size (MB) over the (n_f, n_RB)
// configuration grid. The paper reports TensorFlow checkpoint sizes of ×4
// upscaling models; CheckpointBytes approximates that (weights + two Adam
// moment tensors). Green cells (per-video minimum working configurations)
// and the red big-model cell are properties of specific videos, so the
// grid alone is reproduced here.
func Table1() (Table, map[[2]int]int) {
	filters := []int{4, 8, 16, 32, 64}
	resblocks := []int{4, 8, 12, 16, 20}
	t := Table{Title: "Table 1: model size (MB) over configurations (rows n_f, cols n_RB)"}
	t.Header = []string{"n_f \\ n_RB"}
	for _, rb := range resblocks {
		t.Header = append(t.Header, fmt.Sprintf("%d", rb))
	}
	sizes := make(map[[2]int]int)
	for _, nf := range filters {
		row := []string{fmt.Sprintf("%d", nf)}
		for _, rb := range resblocks {
			m, err := edsr.Build(edsr.Config{Filters: nf, ResBlocks: rb, Scale: 4})
			if err != nil {
				panic(err)
			}
			sizes[[2]int{nf, rb}] = m.CheckpointBytes()
			row = append(row, mb(m.CheckpointBytes()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, sizes
}

// FPSSeries is one curve of paper Fig 8(a-c)/Fig 12: FPS against the
// number of SR inferences per segment. A zero FPS entry means the method
// cannot run (out of memory).
type FPSSeries struct {
	Method string
	Model  edsr.Config
	FPS    []float64
	OOM    bool
}

// segmentFrames is the per-segment frame count of the FPS evaluation
// (≈2 s segments at 30 FPS, the short-segment regime of Fig 8).
const segmentFrames = 60

// Fig8FPS reproduces one panel of paper Fig 8(a-c): FPS versus inferences
// per segment on the Jetson for NAS, NEMO and dcSR-1/2/3.
func Fig8FPS(res device.Resolution, maxInf int) (Table, []FPSSeries) {
	return fpsPanel(device.JetsonNX, res, maxInf,
		fmt.Sprintf("Fig 8 (%s): FPS vs inferences/segment on Jetson Xavier NX", res.Name))
}

// Fig12FPS reproduces paper Fig 12: the same curves at 4K on the laptop
// and desktop.
func Fig12FPS(p device.Profile, maxInf int) (Table, []FPSSeries) {
	return fpsPanel(p, device.Res4K, maxInf,
		fmt.Sprintf("Fig 12 (%s): 4K FPS vs inferences/segment", p.Name))
}

func fpsPanel(p device.Profile, res device.Resolution, maxInf int, title string) (Table, []FPSSeries) {
	methods := []FPSSeries{
		{Method: "NAS", Model: edsr.ConfigBig},
		{Method: "NEMO", Model: edsr.ConfigBig},
		{Method: "dcSR-1", Model: edsr.ConfigDCSR1},
		{Method: "dcSR-2", Model: edsr.ConfigDCSR2},
		{Method: "dcSR-3", Model: edsr.ConfigDCSR3},
	}
	t := Table{Title: title, Header: []string{"method"}}
	for n := 1; n <= maxInf; n++ {
		t.Header = append(t.Header, fmt.Sprintf("n=%d", n))
	}
	for mi := range methods {
		m := &methods[mi]
		row := []string{m.Method}
		for n := 1; n <= maxInf; n++ {
			inferences := n
			if m.Method == "NAS" {
				inferences = segmentFrames // NAS enhances every frame
			}
			fps, err := p.SegmentFPS(device.PlaybackSpec{
				Res: res, Model: m.Model, FramesPerSegment: segmentFrames, Inferences: inferences,
			})
			if err != nil {
				m.OOM = true
				m.FPS = append(m.FPS, 0)
				row = append(row, "OOM")
				continue
			}
			m.FPS = append(m.FPS, fps)
			row = append(row, f1(fps))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, methods
}

// PowerResult summarizes paper Fig 8(d): energy per method over a playback
// window plus the peak/sustained power levels.
type PowerResult struct {
	Method    string
	EnergyJ   float64
	PeakW     float64
	Sustained bool
}

// Fig8Power reproduces paper Fig 8(d): the Jetson power trace at 1080p for
// dcSR-1, NEMO and NAS over an 800-second window (long 7.5 s segments as
// in the paper's playback), plus integrated energy. Returns the summary
// table and, for each method, the raw timeline.
func Fig8Power() (Table, []PowerResult, map[string][]device.PowerSample) {
	const window = 800.0
	const dt = 0.5
	specs := []struct {
		name  string
		model edsr.Config
		inf   int
	}{
		{"dcSR-1", edsr.ConfigDCSR1, 1},
		{"NEMO", edsr.ConfigBig, 1},
		{"NAS", edsr.ConfigBig, 225},
	}
	t := Table{
		Title:  "Fig 8(d): power & energy on Jetson (1080p, 800 s window)",
		Header: []string{"method", "peak W", "trace", "energy J", "vs dcSR"},
	}
	var results []PowerResult
	traces := make(map[string][]device.PowerSample)
	var dcsrEnergy float64
	for _, s := range specs {
		samples, energy, err := device.JetsonNX.PowerTimeline(device.PlaybackSpec{
			Res: device.Res1080p, Model: s.model, FramesPerSegment: 225, Inferences: s.inf, FPS: 30,
		}, window, dt)
		if err != nil {
			panic(err)
		}
		peak, min := 0.0, 1e9
		for _, p := range samples {
			if p.Watts > peak {
				peak = p.Watts
			}
			if p.Watts < min {
				min = p.Watts
			}
		}
		r := PowerResult{Method: s.name, EnergyJ: energy, PeakW: peak, Sustained: peak-min < 1e-9}
		results = append(results, r)
		traces[s.name] = samples
		if s.name == "dcSR-1" {
			dcsrEnergy = energy
		}
		shape := "periodic spikes"
		if r.Sustained {
			shape = "sustained"
		}
		t.Add(s.name, f2(peak), shape, f1(energy), fmt.Sprintf("%.1fx", energy/dcsrEnergy))
	}
	return t, results, traces
}
