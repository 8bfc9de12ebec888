package transport

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"sync"
	"testing"

	"dcsr/internal/core"
	"dcsr/internal/edsr"
	"dcsr/internal/nn"
	"dcsr/internal/splitter"
	"dcsr/internal/stream"
	"dcsr/internal/vae"
	"dcsr/internal/video"
)

// dcsr1Fixture is a prepared stream whose models are edsr.ConfigDCSR1
// (87 148-byte dcW1 payloads, as the reference benchmark ships) and whose
// segments run to kilobytes, so that what a fetch allocates beside its
// payload is small next to it. Training is a few steps: the weights'
// values do not matter here, their bytes do.
var dcsr1Fixture *core.Prepared

func getDCSR1Fixture(t testing.TB) *core.Prepared {
	t.Helper()
	if dcsr1Fixture == nil {
		clip := video.Generate(video.GenConfig{
			W: 320, H: 192, Seed: 37, NumScenes: 2, TotalCues: 4, MinFrames: 5, MaxFrames: 8,
		})
		prep, err := core.Prepare(clip.YUVFrames(), clip.FPS, core.ServerConfig{
			QP:          24,
			Split:       splitter.Config{Threshold: 14, MinLen: 3},
			VAE:         vae.Config{ImgSize: 16, LatentDim: 4, BaseCh: 4},
			VAETrain:    vae.TrainOptions{Epochs: 2, BatchSize: 4},
			MicroConfig: edsr.ConfigDCSR1,
			Train:       edsr.TrainOptions{Steps: 2, BatchSize: 1, PatchSize: 16},
			Seed:        3,
		})
		if err != nil {
			t.Fatal(err)
		}
		dcsr1Fixture = prep
	}
	return dcsr1Fixture
}

// pipeClient serves srv over one net.Pipe and returns a Client on its
// other end; cleanup closes both.
func pipeClient(tb testing.TB, srv *Server) *Client {
	tb.Helper()
	cconn, sconn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.ServeConn(sconn)
	}()
	c := NewClient(cconn)
	tb.Cleanup(func() {
		_ = c.Close()
		_ = sconn.Close()
		<-done
	})
	return c
}

// leastAllocated is the least that fn allocates over ten calls, so an
// allocation on another goroutine meanwhile is not charged to it, nor a
// pooled buffer the race detector's sync.Pool drops (it drops a quarter
// of them on purpose). Both ends of the pipe run in this process: the
// server's share is counted too.
func leastAllocated(fn func()) uint64 {
	least := uint64(1 << 62)
	for range 10 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestClientCallsRecycleReceiveBuffers: after one warm-up call, a typed
// fetch costs what its decoder keeps and not a second copy of the
// payload. A ConfigDCSR1 ModelCtx allocates at most 1.25× the model's
// dcW1 size (the weights themselves are 1×), and a SegmentCtx at most
// 1.25× its payload (codec.Unmarshal copies the frames once). A client
// that allocates a fresh buffer per response reads ≈ 2× on both.
func TestClientCallsRecycleReceiveBuffers(t *testing.T) {
	prep := getDCSR1Fixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	c := pipeClient(t, srv)
	ctx := context.Background()
	cfg := prep.MicroConfig

	label := -1
	for _, l := range prep.Manifest.ModelLabels() {
		if l >= 0 {
			label = l
			break
		}
	}
	if label < 0 {
		t.Fatal("the fixture has no model")
	}
	var modelErr error
	model := func() { _, _, modelErr = c.ModelCtx(ctx, label, cfg) }
	model() // warm-up: the buffer's class is empty on the first call
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	weights := uint64(cfg.SizeBytes())
	got, limit := leastAllocated(model), weights+weights/4
	if modelErr != nil || got > limit {
		t.Errorf("ModelCtx of a %d-byte model allocated %d B, limit %d (err %v)", weights, got, limit, modelErr)
	}

	seg, size := 0, 0
	for i, data := range srv.videos[0].segments {
		if len(data) > size {
			seg, size = i, len(data)
		}
	}
	var segErr error
	segment := func() { _, segErr = c.SegmentCtx(ctx, seg) }
	segment()
	if segErr != nil {
		t.Fatal(segErr)
	}
	got, limit = leastAllocated(segment), uint64(size+size/4)
	if segErr != nil || got > limit {
		t.Errorf("SegmentCtx of a %d-byte segment allocated %d B, limit %d (err %v)", size, got, limit, segErr)
	}
}

// TestClientPayloadOwnership: on one pipelined Client, typed calls (which
// recycle their receive buffers) run beside raw Do and Video.Fetch calls
// (which hand theirs over). Every raw payload and every decoded result is
// held until all goroutines finish and only then compared with what the
// server published: a buffer recycled while someone still holds it, or a
// decoded result that aliases one, shows as a mismatch. Run it under
// -race with -count=20.
func TestClientPayloadOwnership(t *testing.T) {
	prep := getDCSR1Fixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	c := pipeClient(t, srv)
	ctx := context.Background()
	cfg := prep.MicroConfig
	published := srv.videos[0]
	var labels []int
	for _, l := range prep.Manifest.ModelLabels() {
		if l >= 0 {
			labels = append(labels, l)
		}
	}

	type held struct {
		what string
		want []byte
		got  func() []byte
	}
	const workers, rounds = 8, 4
	heldBy := make([][]held, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keep := func(what string, want []byte, got func() []byte) {
				heldBy[w] = append(heldBy[w], held{what, want, got})
			}
			for r := range rounds {
				for i, want := range published.segments {
					switch (w + r + i) % 3 {
					case 0:
						st, err := c.SegmentCtx(ctx, i)
						if err != nil {
							t.Errorf("SegmentCtx %d: %v", i, err)
							return
						}
						keep("SegmentCtx", want, st.Marshal)
					case 1:
						data, err := c.Video(0).Fetch(ctx, stream.KindSegment, i)
						if err != nil {
							t.Errorf("Fetch segment %d: %v", i, err)
							return
						}
						keep("Fetch segment", want, func() []byte { return data })
					default:
						wm, err := c.ManifestCtx(ctx)
						if err != nil {
							t.Errorf("ManifestCtx: %v", err)
							return
						}
						keep("ManifestCtx", published.manifest, func() []byte {
							b, err := EncodeWireManifest(wm.FPS, wm.MicroConfig, wm.Manifest())
							if err != nil {
								return nil
							}
							return b
						})
					}
				}
				for i, l := range labels {
					want := published.models[uint32(l)]
					if (w+r+i)%2 == 0 {
						m, _, err := c.ModelCtx(ctx, l, cfg)
						if err != nil {
							t.Errorf("ModelCtx %d: %v", l, err)
							return
						}
						keep("ModelCtx", want, func() []byte { return nn.EncodeWeights(m.Params()) })
					} else {
						data, err := c.Do(ctx, OpModel, uint32(l), 0)
						if err != nil {
							t.Errorf("Do(OpModel) %d: %v", l, err)
							return
						}
						keep("Do(OpModel)", want, func() []byte { return data })
					}
				}
			}
		}()
	}
	wg.Wait()
	for w, hs := range heldBy {
		for i, h := range hs {
			if !bytes.Equal(h.got(), h.want) {
				t.Fatalf("worker %d, result %d (%s): differs from the published bytes", w, i, h.what)
			}
		}
	}
}

// BenchmarkClientRequestMix is one request mix of the origin workload on
// a ConfigDCSR1 stream over net.Pipe: the manifest, every segment and
// every model, each decoded by its typed call.
func BenchmarkClientRequestMix(b *testing.B) {
	prep := getDCSR1Fixture(b)
	srv, err := NewServer(prep)
	if err != nil {
		b.Fatal(err)
	}
	c := pipeClient(b, srv)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		wm, err := c.ManifestCtx(ctx)
		if err != nil {
			b.Fatal(err)
		}
		for i := range wm.Segments {
			if _, err := c.SegmentCtx(ctx, i); err != nil {
				b.Fatal(err)
			}
		}
		for _, mi := range wm.Models {
			if _, _, err := c.ModelCtx(ctx, mi.Label, wm.MicroConfig); err != nil {
				b.Fatal(err)
			}
		}
	}
}
