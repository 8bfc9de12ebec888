package edsr

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"

	"dcsr/internal/tensor"
	"dcsr/internal/video"
)

// bytes reports the memory the workspace holds: every lane's rings,
// maps and rows, and the output tensor.
func (ws *Workspace) bytes() int64 {
	n := 4 * int64(cap(ws.out.Data))
	for _, ln := range ws.lanes[:cap(ws.lanes)] {
		for _, r := range ln.f[:cap(ln.f)] {
			n += int64(r.Bytes())
		}
		for _, q := range ln.q[:cap(ln.q)] {
			n += int64(q.Bytes())
		}
		n += 4 * int64(cap(ln.obs)+cap(ln.wide)+cap(ln.sink))
		for _, p := range ln.pix {
			n += int64(cap(p))
		}
	}
	return n
}

// calibratedModel returns a briefly trained model of cfg with its int8
// path armed on low.
func calibratedModel(t *testing.T, cfg Config, seed int64, low, high *video.RGB) *Model {
	t.Helper()
	m, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train([]Pair{{Low: low, High: high}}, TrainOptions{Steps: 3, BatchSize: 2, PatchSize: 16, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	if err := m.Calibrate([]*video.RGB{low}); err != nil {
		t.Fatal(err)
	}
	return m
}

// unitScaleModel returns the paper's micro model with its int8 path
// armed at unit activation scales.
func unitScaleModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(ConfigDCSR1, 1)
	if err != nil {
		t.Fatal(err)
	}
	scales := make([]float32, len(m.convs()))
	for i := range scales {
		scales[i] = 1
	}
	if err := m.CalibrateFromScales(scales); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWorkspaceSharedMatchesPrivate is the differential behind sharing:
// models taking turns in one workspace — alternating with each other,
// across frame sizes that grow, shrink and grow again, float32 and int8
// interleaved, through the upsampling tail, and a wide model followed by
// a narrow one — produce the bits each produces alone in a private
// workspace.
func TestWorkspaceSharedMatchesPrivate(t *testing.T) {
	sizes := [][2]int{{48, 32}, {80, 56}, {40, 24}, {96, 64}}
	for _, tc := range []struct {
		name string
		cfgs [2]Config
	}{
		{"x1", [2]Config{{Filters: 8, ResBlocks: 2}, {Filters: 8, ResBlocks: 2}}},
		{"x2", [2]Config{{Filters: 8, ResBlocks: 2, Scale: 2}, {Filters: 8, ResBlocks: 2, Scale: 2}}},
		{"x4", [2]Config{{Filters: 8, ResBlocks: 1, Scale: 4}, {Filters: 8, ResBlocks: 1, Scale: 4}}},
		{"wide-then-narrow", [2]Config{{Filters: 64, ResBlocks: 1, ResScale: 0.1}, {Filters: 16, ResBlocks: 3}}},
		{"x1-then-x2", [2]Config{{Filters: 8, ResBlocks: 2}, {Filters: 8, ResBlocks: 3, Scale: 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var frames []*video.RGB
			for i, sz := range sizes {
				frames = append(frames, genFrame(t, sz[0], sz[1], int64(70+i)))
			}
			var models [2]*Model
			for i, cfg := range tc.cfgs {
				s := cfg.withDefaults().Scale
				low := frames[0]
				high := genFrame(t, low.W*s, low.H*s, 70)
				models[i] = calibratedModel(t, cfg, int64(80+i), low, high)
			}
			// What each model says alone, in its private workspace.
			type key struct {
				model, frame int
				int8         bool
			}
			want := map[key]*video.RGB{}
			for mi, m := range models {
				for fi, f := range frames {
					want[key{mi, fi, false}] = m.Enhance(f)
					want[key{mi, fi, true}] = m.EnhanceInt8(f)
				}
			}
			var shared Workspace
			for _, m := range models {
				m.SetWorkspace(&shared)
			}
			step := 0
			for round := 0; round < 2; round++ {
				for fi, f := range frames {
					for mi, m := range models {
						// Precision alternates out of phase with the model.
						for _, q := range []bool{(step+mi)%2 == 0, (step+mi)%2 != 0} {
							got := m.Enhance
							if q {
								got = m.EnhanceInt8
							}
							if out := got(f); !bytes.Equal(out.Pix, want[key{mi, fi, q}].Pix) {
								t.Fatalf("step %d: model %d frame %d int8=%v differs in the shared workspace", step, mi, fi, q)
							}
							step++
						}
					}
				}
			}
		})
	}
}

// TestWorkspaceFootprint pins what one session pays for activations:
// inference is a row pipeline, so after an int8 and a float32 pass of
// the in-loop entry points (EnhanceYUVInt8, EnhanceYUV) the paper's
// micro model's workspace holds the same bytes at 480×8, 480×272 and
// 480×1088 — rings a few rows deep, whatever the height — and at width
// 1920 it stays under 16 MB (the whole-frame maps it replaced were ≈ 490
// MB at 1080p). Measured at one worker: each further worker's stripe
// adds one lane of rings. ConfigActivationBytes' device-model figure is
// two frame-sized feature maps; see its comment.
func TestWorkspaceFootprint(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	tensor.ShutdownPool()
	defer func() {
		runtime.GOMAXPROCS(prev)
		tensor.ShutdownPool()
	}()
	m := unitScaleModel(t)
	footprint := func(w, h int) int64 {
		var ws Workspace
		m.SetWorkspace(&ws)
		f := genFrame(t, w, h, 3).ToYUV()
		m.EnhanceYUVInt8(f)
		m.EnhanceYUV(f)
		return ws.bytes()
	}
	want := footprint(480, 272)
	t.Logf("workspace at 480x272: %d B (ConfigActivationBytes: %d B)", want, ConfigActivationBytes(ConfigDCSR1, 480, 272))
	for _, h := range []int{8, 1088} {
		if got := footprint(480, h); got != want {
			t.Errorf("workspace holds %d B after the YUV entry points at 480x%d, %d B at 480x272: it grows with height", got, h, want)
		}
	}
	if got := footprint(1920, 8); got >= 16<<20 {
		t.Errorf("workspace holds %d B at width 1920, want < 16 MB", got)
	} else {
		t.Logf("workspace at width 1920: %d B", got)
	}
}

// TestEnhanceYUVAllocs pins the in-loop enhance path: on a warm
// workspace EnhanceYUV and EnhanceYUVInt8 allocate the returned frame
// and nothing of frame size besides — the RGB images they convert
// through live in the workspace. Measured at one worker with the
// collector off, like TestTrainStepAllocs.
func TestEnhanceYUVAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	prev := runtime.GOMAXPROCS(1)
	tensor.ShutdownPool()
	gc := debug.SetGCPercent(-1)
	defer func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(prev)
		tensor.ShutdownPool()
	}()
	const w, h = 480, 272
	m := unitScaleModel(t)
	f := genFrame(t, w, h, 3).ToYUV()
	frame := uint64(len(f.Y) + len(f.U) + len(f.V))
	for _, c := range []struct {
		name    string
		enhance func(*video.YUV) *video.YUV
	}{{"EnhanceYUV", m.EnhanceYUV}, {"EnhanceYUVInt8", m.EnhanceYUVInt8}} {
		c.enhance(f)
		if _, b := mallocs(func() { c.enhance(f) }); b > frame+64<<10 {
			t.Errorf("%s at %dx%d allocates %d B on a warm workspace, want one %d B frame + <= 64 KiB", c.name, w, h, b, frame)
		}
	}
}

// mallocs counts the heap objects and bytes fn allocates (meaningful at
// one worker with nothing else running, which is how its callers run).
func mallocs(fn func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// trainAllocs reports the heap objects and bytes one Train call of the
// given length allocates, at batch 2 × patch 16 on the paper's micro
// model.
func trainAllocs(t *testing.T, pairs []Pair, steps int) (objects, bytes float64) {
	t.Helper()
	var before, after runtime.MemStats
	run := func() {
		m, err := New(ConfigDCSR1, 1)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		if _, err := m.Train(pairs, TrainOptions{Steps: steps, BatchSize: 2, PatchSize: 16, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
	}
	objects = testing.AllocsPerRun(2, run) // model construction included; it cancels in the difference
	return objects, float64(after.TotalAlloc - before.TotalAlloc)
}

// maxTrainStepAllocs bounds a steady-state step's heap objects on the
// 11-convolution micro model at batch 2: five per convolution — the
// closures handed to the kernel pool, one by the forward GEMM and two per
// batch element by the backward products — measured 55, plus slack.
const maxTrainStepAllocs = 64

// TestTrainStepAllocs pins the allocation-free training step. A Train of
// 3+20 steps is compared with one of 3 steps (the warm-ups, which grow
// the arena and Adam's moments): the 20 extra steady-state steps may
// allocate only the kernels' per-call closures — a count that depends on
// the layer count, not on the step number — and far less memory than one
// step's activations, column matrices and gradients (≈ 4 MB here before
// the step reused them). Measured at one worker, like the inference
// contract: AllocsPerRun pins GOMAXPROCS to 1.
func TestTrainStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	prev := runtime.GOMAXPROCS(1)
	tensor.ShutdownPool()
	// No collection while measuring: a GC empties the kernels' scratch
	// pools, and whichever run refills them would be charged for it.
	gc := debug.SetGCPercent(-1)
	defer func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(prev)
		tensor.ShutdownPool()
	}()
	f := genFrame(t, 64, 48, 5)
	pairs := []Pair{{Low: f, High: f}}
	const warm, extra = 3, 20
	o1, b1 := trainAllocs(t, pairs, warm)
	o2, b2 := trainAllocs(t, pairs, warm+extra)
	perStep, bytesPerStep := (o2-o1)/extra, (b2-b1)/extra
	t.Logf("steady state: %.1f objects, %.0f B per step", perStep, bytesPerStep)
	if perStep > maxTrainStepAllocs {
		t.Errorf("a steady-state training step allocates %.1f objects, want <= %d", perStep, maxTrainStepAllocs)
	}
	if bytesPerStep >= 64<<10 {
		t.Errorf("a steady-state training step allocates %.0f B, want < 64 KiB", bytesPerStep)
	}
}
