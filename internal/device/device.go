// Package device models the three client device classes of the paper's
// evaluation — a mobile-grade Jetson Xavier NX, a GTX-1060 laptop and an
// RTX-2070 desktop — as analytic performance profiles: an effective SR
// inference throughput (FLOP/s), a hardware video-decode rate (pixels/s),
// an activation-memory budget (the OOM behaviour of paper Fig 8 at 4K),
// and a three-level power model (idle, decoding, SR-active).
//
// The paper measures these quantities on physical hardware; this package
// replaces the hardware with calibrated profiles so that the FPS curves
// (Figs 8 and 12), the power timeline (Fig 8d) and the energy totals are
// regenerated from the same FLOPs arithmetic the real devices obey. See
// DESIGN.md §1 for the substitution rationale.
package device

import (
	"fmt"
	"math"

	"dcsr/internal/edsr"
)

// Resolution is a named video frame size.
type Resolution struct {
	Name string
	W, H int
}

// The three resolutions of the paper's evaluation.
var (
	Res720p  = Resolution{Name: "720p", W: 1280, H: 720}
	Res1080p = Resolution{Name: "1080p", W: 1920, H: 1080}
	Res4K    = Resolution{Name: "4K", W: 3840, H: 2160}
)

// Pixels returns the pixel count per frame.
func (r Resolution) Pixels() float64 { return float64(r.W) * float64(r.H) }

// Profile describes one device class.
type Profile struct {
	Name string
	// SRThroughput is the effective neural-inference throughput in FLOP/s.
	SRThroughput float64
	// DecodeRate is the hardware video decoder throughput in pixels/s.
	DecodeRate float64
	// MemBudget is the accelerator memory available for SR activations in
	// bytes; inference requiring more fails with ErrOutOfMemory.
	MemBudget int64
	// IdlePower is the baseline system draw in watts.
	IdlePower float64
	// DecodePower is the additional draw while the video decoder is busy.
	DecodePower float64
	// SRPower is the additional draw of the accelerator at full occupancy.
	SRPower float64
}

// Calibrated device profiles. The absolute numbers are chosen so the
// resulting FPS/power curves reproduce the paper's qualitative results
// (who meets 30 FPS where, who OOMs, who draws flat vs spiky power);
// they are not measurements of the physical boards.
var (
	JetsonNX = Profile{
		Name:         "jetson-xavier-nx",
		SRThroughput: 1.5e12,
		DecodeRate:   500e6,
		MemBudget:    3 << 30,
		IdlePower:    0.6,
		DecodePower:  0.4,
		SRPower:      2.2,
	}
	Laptop = Profile{
		Name:         "laptop-gtx1060",
		SRThroughput: 15e12,
		DecodeRate:   800e6,
		MemBudget:    6 << 30,
		IdlePower:    15,
		DecodePower:  6,
		SRPower:      80,
	}
	Desktop = Profile{
		Name:         "desktop-rtx2070",
		SRThroughput: 25e12,
		DecodeRate:   1500e6,
		MemBudget:    8 << 30,
		IdlePower:    40,
		DecodePower:  8,
		SRPower:      175,
	}
)

// ErrOutOfMemory indicates an SR model's activations exceed the device
// memory budget (paper: "NAS and NEMO cannot even run for 4K because of
// running out of memory").
var ErrOutOfMemory = fmt.Errorf("device: model out of memory")

// InferenceTime returns the wall-clock seconds of one SR inference of cfg
// on a w×h input, or ErrOutOfMemory.
func (p Profile) InferenceTime(cfg edsr.Config, w, h int) (float64, error) {
	if need := edsr.ConfigActivationBytes(cfg, w, h); need > p.MemBudget {
		return 0, fmt.Errorf("%w: %s needs %.2f GiB at %dx%d, budget %.2f GiB",
			ErrOutOfMemory, cfg, float64(need)/(1<<30), w, h, float64(p.MemBudget)/(1<<30))
	}
	return edsr.ConfigFLOPs(cfg, w, h) / p.SRThroughput, nil
}

// DecodeTime returns the seconds needed to decode n frames at resolution r.
func (p Profile) DecodeTime(r Resolution, n int) float64 {
	return r.Pixels() * float64(n) / p.DecodeRate
}

// Occupancy models how fully a model saturates the accelerator: narrow
// micro models leave compute units idle, which is why dcSR's power spikes
// stay below NAS's sustained draw (paper Fig 8d). The proxy is channel
// width relative to the full-width (64-filter) model.
func Occupancy(cfg edsr.Config) float64 {
	f := float64(cfg.Filters)
	if f <= 0 {
		return 0
	}
	return math.Min(1, math.Sqrt(f/64.0))
}

// PlaybackSpec describes one playback configuration to evaluate.
type PlaybackSpec struct {
	Res              Resolution
	Model            edsr.Config
	FramesPerSegment int // frames in one video segment
	Inferences       int // SR inferences per segment (NAS: == FramesPerSegment)
	FPS              int // display rate of the source video (for power timeline)
}

// SegmentFPS returns the achievable display rate in frames/s: the segment's
// frame count divided by its total processing time (decode plus SR
// inference), matching the paper's "practical FPS" that considers both
// decoding and inference latency (§4).
func (p Profile) SegmentFPS(spec PlaybackSpec) (float64, error) {
	if spec.FramesPerSegment <= 0 {
		return 0, fmt.Errorf("device: FramesPerSegment must be positive")
	}
	ti, err := p.InferenceTime(spec.Model, spec.Res.W, spec.Res.H)
	if err != nil {
		return 0, err
	}
	total := p.DecodeTime(spec.Res, spec.FramesPerSegment) + float64(spec.Inferences)*ti
	return float64(spec.FramesPerSegment) / total, nil
}

// PowerSample is one point of a simulated power-rail trace.
type PowerSample struct {
	T     float64 // seconds since playback start
	Watts float64
}

// PowerTimeline simulates the device power draw over duration seconds of
// playback: every segment triggers spec.Inferences SR inferences
// back-to-back at the segment start; decode draw is proportional to the
// decoder's busy fraction at real-time playback. Returns samples at the
// given interval and the integrated energy in joules.
func (p Profile) PowerTimeline(spec PlaybackSpec, duration, sampleDt float64) ([]PowerSample, float64, error) {
	if spec.FPS == 0 {
		spec.FPS = 30
	}
	ti, err := p.InferenceTime(spec.Model, spec.Res.W, spec.Res.H)
	if err != nil {
		return nil, 0, err
	}
	segDur := float64(spec.FramesPerSegment) / float64(spec.FPS)
	srBusy := float64(spec.Inferences) * ti
	occ := Occupancy(spec.Model)
	// Decoder busy fraction at real-time playback.
	decFrac := math.Min(1, spec.Res.Pixels()*float64(spec.FPS)/p.DecodeRate)
	var samples []PowerSample
	for t := 0.0; t < duration; t += sampleDt {
		tin := math.Mod(t, segDur)
		w := p.IdlePower + decFrac*p.DecodePower
		if tin < srBusy {
			w += occ * p.SRPower
		}
		samples = append(samples, PowerSample{T: t, Watts: w})
	}
	return samples, EnergyJ(samples, sampleDt), nil
}

// EnergyJ integrates the mean power of a timeline over its duration.
func EnergyJ(samples []PowerSample, sampleDt float64) float64 {
	var e float64
	for _, s := range samples {
		e += s.Watts * sampleDt
	}
	return e
}
