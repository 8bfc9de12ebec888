package edsr

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"dcsr/internal/tensor"
	"dcsr/internal/video"
)

func genFrame(t testing.TB, w, h int, seed int64) *video.RGB {
	t.Helper()
	clip := video.Generate(video.GenConfig{W: w, H: h, Seed: seed, NumScenes: 1, TotalCues: 1, MinFrames: 1, MaxFrames: 1})
	return clip.Frames()[0]
}

// TestForwardInferenceMatchesForward pins the fast path's contract: the
// fused, buffer-reusing inference pass produces bit-identical output to
// the training Forward pass, at scale 1 and through the upsampling tail.
func TestForwardInferenceMatchesForward(t *testing.T) {
	for _, scale := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("x%d", scale), func(t *testing.T) {
			m, err := New(Config{Filters: 8, ResBlocks: 2, Scale: scale}, 7)
			if err != nil {
				t.Fatal(err)
			}
			// Train a few steps so the tail weights are non-zero and the
			// comparison exercises real values end to end.
			low := genFrame(t, 48, 32, 5)
			high := low
			if scale > 1 {
				high = genFrame(t, 48*scale, 32*scale, 5)
			}
			if _, err := m.Train([]Pair{{Low: low, High: high}}, TrainOptions{Steps: 3, PatchSize: 16}); err != nil {
				t.Fatal(err)
			}
			x := ToTensor(genFrame(t, 40, 24, 9))
			want := m.Forward(x)
			for i := 0; i < 2; i++ { // second pass exercises buffer reuse
				got := m.ForwardInference(x)
				if len(got.Data) != len(want.Data) {
					t.Fatalf("size mismatch: %v vs %v", got.Shape, want.Shape)
				}
				for j := range got.Data {
					if got.Data[j] != want.Data[j] {
						t.Fatalf("pass %d: element %d differs: inference %v vs forward %v",
							i, j, got.Data[j], want.Data[j])
					}
				}
			}
		})
	}
}

// TestEnhanceConcurrent hammers the shared kernel worker pool from
// concurrent Enhance calls on independent models (run under -race by
// make verify), checking results stay identical to serial execution and
// that a pool restart mid-load is safe.
func TestEnhanceConcurrent(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	tensor.ShutdownPool()
	defer func() {
		runtime.GOMAXPROCS(prev)
		tensor.ShutdownPool()
	}()
	const models = 4
	f := genFrame(t, 96, 54, 3)
	serial := make([]*video.RGB, models)
	for i := range serial {
		m, err := New(ConfigDCSR1, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = m.Enhance(f)
	}
	tensor.ShutdownPool() // restart under the concurrent load below
	var wg sync.WaitGroup
	errs := make(chan error, models)
	for i := 0; i < models; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := New(ConfigDCSR1, int64(i))
			if err != nil {
				errs <- err
				return
			}
			for pass := 0; pass < 3; pass++ {
				out := m.Enhance(f)
				for j := range out.Pix {
					if out.Pix[j] != serial[i].Pix[j] {
						errs <- fmt.Errorf("model %d pass %d: pixel %d differs", i, pass, j)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEnhanceSteadyStateAllocs pins the alloc-free inference path: after
// warmup, ForwardInference performs zero heap allocations per frame and
// Enhance only pays for the returned RGB frame — and a second model
// attached to the warmed workspace allocates nothing from its very first
// pass, i.e. a new cluster model (or an evicted one rebuilt) costs no
// activation memory. Measured at one worker — with more, each parallel
// kernel launch adds a constant-size job header.
func TestEnhanceSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		// The race detector deliberately drops sync.Pool items to widen
		// interleaving coverage, so the scratch arena re-allocates and the
		// steady-state counts below no longer hold.
		t.Skip("allocation counts are distorted under the race detector")
	}
	prev := runtime.GOMAXPROCS(1)
	tensor.ShutdownPool()
	defer func() {
		runtime.GOMAXPROCS(prev)
		tensor.ShutdownPool()
	}()
	m, err := New(ConfigDCSR1, 1)
	if err != nil {
		t.Fatal(err)
	}
	next, err := New(ConfigDCSR1, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := genFrame(t, 96, 54, 3)
	x := ToTensor(f)
	m.ForwardInference(x)
	m.ForwardInference(x)
	if avg := testing.AllocsPerRun(10, func() { m.ForwardInference(x) }); avg > 0 {
		t.Errorf("ForwardInference allocates %.1f objects per frame, want 0", avg)
	}
	m.Enhance(f)
	// Enhance additionally allocates the returned *video.RGB (a handful
	// of objects, independent of layer count and frame size).
	if avg := testing.AllocsPerRun(10, func() { m.Enhance(f) }); avg > 4 {
		t.Errorf("Enhance allocates %.1f objects per frame, want <= 4", avg)
	}
	next.SetWorkspace(m.workspace())
	if n := mallocs(func() { next.ForwardInference(x) }); n != 0 {
		t.Errorf("a second model's first ForwardInference in the warmed workspace allocated %d objects, want 0", n)
	}
}
