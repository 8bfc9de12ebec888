package core

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"dcsr/internal/edsr"
	"dcsr/internal/stream"
	"dcsr/internal/tensor"
	"dcsr/internal/video"
)

// wideGatedConfig is gatedConfig with a micro model wide enough that its
// activations dwarf its weights, and a big model large enough that K
// selection is still free to pick several clusters.
func wideGatedConfig() ServerConfig {
	cfg := gatedConfig()
	cfg.BigModel = edsr.Config{Filters: 16, ResBlocks: 4}
	cfg.MicroConfig = edsr.Config{Filters: 8, ResBlocks: 2}
	cfg.Train.Steps = 20
	return cfg
}

// liveHeap is the heap still reachable after two collections (the second
// empties the sync.Pool victim caches the kernels' scratch lives in).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestPreparedRetainsNoActivations pins what a hosted video costs the
// origin: a Prepared keeps the stream, the model payloads with their
// deserialized weights, and the evaluation I frames — not the feature
// maps its quality gates ran in, which dcsr-serve would otherwise hold
// per video for its lifetime without ever reading them. Before the gates
// ran in checked-out workspaces every gated model kept its own 14 maps.
func TestPreparedRetainsNoActivations(t *testing.T) {
	// Large enough that feature maps dwarf weights, small enough for < 1 s.
	clip := video.Generate(video.GenConfig{
		W: 192, H: 112, Seed: 3, NumScenes: 3, TotalCues: 8, MinFrames: 5, MaxFrames: 9,
	})
	frames := clip.YUVFrames()
	before := liveHeap()
	p, err := Prepare(frames, clip.FPS, wideGatedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Models) < 2 {
		t.Fatalf("clip clustered into %d models; need >= 2", len(p.Models))
	}
	// What a Prepared has to hold. Measured it retains 1.15× this sum
	// (weights cost about four times their payload — the payload, W, the
	// Grad every Param carries, int8 state — and the I frames dominate);
	// twice leaves room and is still under half of one workspace.
	payload := int64(p.Stream.Bytes())
	for _, sm := range p.Models {
		payload += int64(len(sm.Bytes))
	}
	for _, f := range append(slices.Clone(p.LowIFrames), p.OrigIFrames...) {
		payload += int64(len(f.Pix))
	}
	const multiple, slack = 2, 64 << 10
	limit := multiple*payload + slack
	if oneMap := int64(4 * p.MicroConfig.Filters * clip.W * clip.H); limit > 4*oneMap {
		t.Fatalf("limit %d B would not notice one retained workspace (4 × %d B)", limit, oneMap)
	}
	// Live in every measurement, so the inputs cancel.
	defer runtime.KeepAlive(clip)
	defer runtime.KeepAlive(frames)
	if got := liveHeap() - before; got > limit {
		t.Errorf("Prepared retains %d B; stream + models + I frames are %d B, want <= %d× that + %d", got, payload, multiple, slack)
	}
	dir := t.TempDir()
	if err := p.Save(dir); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(p)
	p = nil
	before = liveHeap()
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := liveHeap() - before; got > limit {
		t.Errorf("loaded Prepared retains %d B, want <= %d", got, limit)
	}
	runtime.KeepAlive(loaded)
}

// gatedPrepared runs the gated pipeline over the small test clip.
func gatedPrepared(t *testing.T) *Prepared {
	t.Helper()
	clip := testClip(t, 3, 3, 8)
	p, err := Prepare(clip.YUVFrames(), clip.FPS, wideGatedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Models) < 2 {
		t.Fatalf("clip clustered into %d models; need >= 2", len(p.Models))
	}
	return p
}

// TestWorkspaceBudgetEviction plays one stream with an unbounded model
// cache and with a budget of a single model, which evicts and re-downloads
// a label at every cluster change: the frames are identical, and each
// extra download costs a model's weights — not, as when every model
// instance owned its layer buffers, a fresh set of feature maps.
func TestWorkspaceBudgetEviction(t *testing.T) {
	p := gatedPrepared(t)
	play := func(budget int64) (*playback, int64) {
		opts := stream.DefaultOptions()
		opts.CacheBudget = budget
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := playOver(p, p, opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return res, int64(after.TotalAlloc - before.TotalAlloc)
	}
	// No collection while measuring: a GC empties the kernels' scratch
	// pools, and whichever play refills them would be charged for it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	play(-1) // warm the pools
	base, baseAlloc := play(-1)
	// The cache holds what crossed the wire: the largest such payload is
	// the budget of one model. Its weights are a float32 model's size.
	var budget int64
	for _, mi := range p.Manifest.Models {
		budget = max(budget, int64(mi.Bytes))
	}
	modelSize := p.MicroConfig.SizeBytes()
	tight, tightAlloc := play(budget)
	framesIdentical(t, base.Frames, tight.Frames, "bounded vs unbounded cache")
	extra := int64(tight.Downloads - base.Downloads)
	if tight.Evictions == 0 || extra <= 0 {
		t.Fatalf("budget of one model forced %d evictions and %d extra downloads; want both > 0", tight.Evictions, extra)
	}
	if raceEnabled {
		// The race detector drops sync.Pool items at random, so the
		// kernels' scratch is re-allocated and charged to either play.
		return
	}
	// A re-download assembles from the delta: its decoded codes and
	// scales, the model's W (no gradient, no random draws), the dcW1
	// encoding the digest is checked on, and the int8 weights.
	perDownload := (tightAlloc - baseAlloc) / extra
	oneMap := int64(4 * p.MicroConfig.Filters * p.Stream.W * p.Stream.H)
	if perDownload > 8*modelSize || perDownload > oneMap {
		t.Errorf("each re-download allocated %d B (model payload %d B, one feature map %d B): activations are being rebuilt per model",
			perDownload, modelSize, oneMap)
	}
}

// TestWorkspaceGatesRepeatable is the hazard the shared workspaces must
// exclude: both gates fan out over forEach workers, and a workspace
// reachable from two of them at once would show up as activation scales,
// gate PSNRs or canonical weights that differ from run to run (and as a
// report under -race, which is how make verify runs this).
func TestWorkspaceGatesRepeatable(t *testing.T) {
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	tensor.ShutdownPool()
	defer func() {
		runtime.GOMAXPROCS(prev)
		tensor.ShutdownPool()
	}()
	describe := func(p *Prepared) string {
		var b bytes.Buffer
		for label := 0; label < p.K; label++ {
			sm := p.Models[label]
			if sm == nil {
				continue
			}
			fmt.Fprintf(&b, "%d weights=%x quant=%+v", label, sm.Bytes, *sm.Quant)
			if sm.Delta != nil {
				fmt.Fprintf(&b, " delta=%v/%v/%v/%x", sm.Delta.DeltaOK, sm.Delta.PSNRFull, sm.Delta.PSNRDelta, sm.Delta.Bytes)
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	first := describe(gatedPrepared(t))
	for run := 1; run < 3; run++ {
		if got := describe(gatedPrepared(t)); got != first {
			t.Fatalf("run %d of the gated pipeline differs from run 0:\n%s\nvs\n%s", run, got, first)
		}
	}
}

// TestWorkspaceConcurrentSessions plays two sessions at once in one
// process: each owns its workspace, so both stay pixel-identical to a
// session that had the process to itself.
func TestWorkspaceConcurrentSessions(t *testing.T) {
	p := gatedPrepared(t)
	alone, err := playDefault(p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]*playback, 2)
	errs := make([]error, 2)
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := stream.DefaultOptions()
			opts.Int8 = i == 0 // one session per precision
			results[i], errs[i] = playOver(p, p, opts)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	framesIdentical(t, alone.Frames, results[0].Frames, "concurrent int8 session vs alone")
	f32 := stream.DefaultOptions()
	f32.Int8 = false
	aloneF32, err := playOver(p, p, f32)
	if err != nil {
		t.Fatal(err)
	}
	framesIdentical(t, aloneF32.Frames, results[1].Frames, "concurrent float32 session vs alone")
}
