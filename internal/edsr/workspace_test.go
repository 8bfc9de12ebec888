package edsr

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"

	"dcsr/internal/tensor"
	"dcsr/internal/video"
)

// bytes reports the memory the workspace holds.
func (ws *Workspace) bytes() int64 {
	n := cap(ws.skip.Data) + cap(ws.in.Data) + cap(ws.out.Data) + cap(ws.near.Data)
	for i := range ws.maps {
		n += cap(ws.maps[i].Data)
	}
	return 4*int64(n) + int64(ws.am.Bytes())
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

// TestWorkspaceFootprint pins what one session pays for activations: after
// a float32 and an int8 pass of the paper's micro model over a 480×272
// frame the workspace holds exactly four n_f-channel feature maps (the
// head's, kept for the global skip, and the three the body rotates
// through), the 3-channel input and output, and the int8 activation map
// — one byte per channel and pixel plus its one-pixel ring, the spare row
// an in-place convolution shifts into and 8·n_f bytes of slack (1.5 %
// over a bare int8 copy of a feature map). An int8-only session holds one
// feature map less: its residual blocks keep their inner activation in
// the int8 map. ConfigActivationBytes' device-model figure is two of
// those maps; see its comment.
func TestWorkspaceFootprint(t *testing.T) {
	const w, h = 480, 272
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
	f := genFrame(t, w, h, 3)
	featureMap := int64(4 * ConfigDCSR1.Filters * w * h)
	if featureMap != ConfigActivationBytes(ConfigDCSR1, w, h)/2 {
		t.Fatalf("feature map %d B is not half of ConfigActivationBytes %d B", featureMap, ConfigActivationBytes(ConfigDCSR1, w, h))
	}
	nf := int64(ConfigDCSR1.Filters)
	int8Map := nf*(w+2)*(h+3) + 8*nf
	inOut := 2 * int64(4*3*w*h)

	var int8Only Workspace
	m.SetWorkspace(&int8Only)
	m.EnhanceInt8(f)
	if got, want := int8Only.bytes(), 3*featureMap+inOut+int8Map; got != want {
		t.Errorf("workspace holds %d B after EnhanceInt8 at %dx%d, want %d (3 feature maps + in/out + int8 map)", got, w, h, want)
	}

	var ws Workspace
	m.SetWorkspace(&ws)
	m.Enhance(f)
	m.EnhanceInt8(f)
	if got, want := ws.bytes(), 4*featureMap+inOut+int8Map; got != want {
		t.Errorf("workspace holds %d B after Enhance + EnhanceInt8 at %dx%d, want %d (4 feature maps + in/out + int8 map)", got, w, h, want)
	}
	if cap(ws.near.Data) != 0 {
		t.Errorf("scale-1 pass grew the nearest-neighbour buffer to %d floats", cap(ws.near.Data))
	}
}

// mallocs counts the heap objects fn allocates (meaningful at one worker
// with nothing else running, which is how its callers run).
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
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
