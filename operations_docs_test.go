package dcsr_test

import (
	"context"
	"io"
	"net"
	"sort"
	"testing"
	"time"

	"dcsr/internal/core"
	"dcsr/internal/edsr"
	"dcsr/internal/faultnet"
	"dcsr/internal/lint"
	"dcsr/internal/obs"
	"dcsr/internal/splitter"
	"dcsr/internal/stream"
	"dcsr/internal/transport"
	"dcsr/internal/vae"
	"dcsr/internal/video"
)

// TestOperationsDocMetrics pins docs/OPERATIONS.md to the code: the set
// of metric names the documentation tabulates must equal — in both
// directions — the set of names a full pipeline run registers. The run
// covers prepare, local playback, a TCP serve with fault injection
// (drops, a timeout, degraded model fetches), a not-found request and an
// unknown opcode, so every stable metric is registered. The documented
// set comes from the same parser the lint pass uses (lint.DocMetricNames),
// so this test and dcsr-lint can never disagree about what the table
// says. Between them they gate both directions: the metricnames analyzer
// (TestLintRepo) fails on a name constructed in code but not documented,
// and this test on a documented name nothing registers.
func TestOperationsDocMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the pipeline; skipped in short mode")
	}
	documented, err := lint.DocMetricNames(".")
	if err != nil {
		t.Fatal(err)
	}

	// One shared bundle across every stage, so the snapshot at the end is
	// the union of everything the system can register.
	o := obs.New()
	clip := video.Generate(video.GenConfig{
		W: 80, H: 48, Seed: 23, NumScenes: 3, TotalCues: 6, MinFrames: 5, MaxFrames: 8,
	})
	frames := clip.YUVFrames()
	prep, err := core.Prepare(frames, clip.FPS, core.ServerConfig{
		QP:          51,
		Split:       splitter.Config{Threshold: 14, MinLen: 3},
		VAE:         vae.Config{ImgSize: 16, LatentDim: 4, BaseCh: 4},
		VAETrain:    vae.TrainOptions{Epochs: 10, BatchSize: 4},
		MicroConfig: edsr.Config{Filters: 4, ResBlocks: 1},
		Train:       edsr.TrainOptions{Steps: 60, BatchSize: 2, PatchSize: 16},
		// Quant registers the int8 gate counters; the player below then
		// registers the int8 enhance-latency histogram. Delta
		// registers the delta gate counters and makes the manifest carry a
		// backbone, so wire playback below exercises the model-stream path
		// (the loose PSNR bound guarantees the gate accepts, so at least
		// one cluster really ships as a delta).
		Quant: core.QuantConfig{Enabled: true},
		Delta: core.DeltaConfig{Enabled: true, MaxPSNRDrop: 100},
		Seed:  1,
		Obs:   o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if prep.Manifest.Backbone == nil {
		t.Fatal("delta stage produced no backbone; doc-coverage run is incomplete")
	}

	// Local playback: session accounting plus codec decode/enhance. The
	// unbounded cache registers the modelstore put/hit counters and the
	// resident-bytes gauge.
	playLocal := func(opts stream.Options) *stream.Session {
		t.Helper()
		sess, err := stream.Open(prep.Manifest, prep.MicroConfig, prep, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sess.Play(context.Background()); err != nil {
			t.Fatal(err)
		}
		return sess
	}
	opts := stream.DefaultOptions()
	opts.Obs = o
	playLocal(opts)

	// Bounded playback: a budget that fits a single model forces LRU
	// evictions and lazy re-downloads (modelstore_evictions_total).
	bounded := opts
	for _, mi := range prep.Manifest.Models {
		bounded.CacheBudget = max(bounded.CacheBudget, int64(mi.Bytes))
	}
	if playLocal(bounded).Evictions == 0 {
		t.Fatal("bounded playback produced no evictions; doc-coverage run is incomplete")
	}

	// TCP serve (registers the open-conns gauge) with fault injection on
	// the client: the second request's response is delayed past the
	// deadline (timeout + reconnect + retry) and every full-model
	// response but the backbone's is dropped (degraded segments, fetch
	// failures). One
	// delta-shipped cluster has its OpModelDelta responses eaten too, so
	// its assembly falls back to the (dropped) full-model path and
	// degrades, while the backbone fetch and the remaining deltas succeed
	// — firing the whole modelstream_* family in one session.
	dropLabel := -1
	for label, sm := range prep.Models {
		if sm.Delta != nil && sm.Delta.DeltaOK && label != prep.Manifest.Backbone.Label {
			dropLabel = label
			break
		}
	}
	if dropLabel < 0 {
		t.Fatal("no cluster shipped as a delta; doc-coverage run is incomplete")
	}
	srv, err := transport.NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	srv.Obs = o
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	inj := faultnet.New(faultnet.Config{
		Delay: 300 * time.Millisecond,
		Decide: func(i int, frame []byte) faultnet.Kind {
			switch op, arg, _ := transport.PeekRequest(frame); op {
			case transport.OpModel:
				if arg != uint32(prep.Manifest.Backbone.Label) {
					return faultnet.KindDrop
				}
			case transport.OpModelDelta:
				if arg == uint32(dropLabel) {
					return faultnet.KindDrop
				}
			}
			if i == 1 {
				return faultnet.KindDelay
			}
			return faultnet.KindNone
		},
	})
	dial := func() (io.ReadWriter, error) {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return nil, err
		}
		return inj.Wrap(conn), nil
	}
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	client := transport.NewClient(conn)
	client.Obs = o
	client.Redial = dial
	client.Retry = transport.RetryPolicy{
		MaxRetries: 1,
		BaseDelay:  time.Millisecond,
		MaxDelay:   2 * time.Millisecond,
		Timeout:    50 * time.Millisecond,
		Seed:       1,
	}
	if _, stats, err := client.PlayCtx(context.Background(), true); err != nil {
		t.Fatal(err)
	} else if stats.DegradedSegments == 0 {
		t.Fatal("fault schedule produced no degraded segments; doc-coverage run is incomplete")
	}
	if client.Timeouts == 0 {
		t.Error("fault schedule produced no timeout")
	}
	// Not-found path (never retried).
	if _, err := client.SegmentCtx(context.Background(), 9999); err == nil {
		t.Fatal("fetching segment 9999 succeeded")
	}
	// Unknown opcode → transport_unknown_seconds on the server.
	mux, err := transport.DialMux(func() (io.ReadWriter, error) { return net.Dial("tcp", l.Addr().String()) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mux.Do(context.Background(), 9, 0, 0); err == nil {
		t.Fatal("opcode 9 was served")
	}
	mux.Close()

	// Admission shed: a server whose per-connection token bucket holds a
	// single token sheds the second request with a typed retry-after,
	// registering the shed counters on both sides (transport_shed_total
	// and transport_client_shed_total).
	shedSrv, err := transport.NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	shedSrv.Obs = o
	shedSrv.Admission = transport.AdmissionConfig{PerConnRate: 1e-9, PerConnBurst: 1}
	scc, scs := net.Pipe()
	shedDone := make(chan struct{})
	go func() { defer close(shedDone); _ = shedSrv.ServeConn(scs) }()
	shedClient := transport.NewClient(scc)
	shedClient.Obs = o
	if _, err := shedClient.ManifestCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := shedClient.SegmentCtx(context.Background(), 0); err == nil {
		t.Fatal("second request on a drained bucket succeeded")
	} else if shedClient.Sheds == 0 {
		t.Fatalf("second request on a drained bucket: want retry-after, got %v", err)
	}
	scc.Close()
	<-shedDone
	scs.Close()

	// Quiesce: Close waits for every Serve-accepted handler to finish its
	// accounting before we snapshot the registry.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	snap := o.Metrics.Snapshot()
	registered := map[string]bool{}
	for name := range snap.Counters {
		registered[name] = true
	}
	for name := range snap.Gauges {
		registered[name] = true
	}
	for name := range snap.Histograms {
		registered[name] = true
	}

	var missing, stale []string
	for name := range registered {
		if !documented[name] {
			missing = append(missing, name)
		}
	}
	for name := range documented {
		if !registered[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, name := range missing {
		t.Errorf("metric %s is registered by the pipeline but missing from docs/OPERATIONS.md", name)
	}
	for _, name := range stale {
		t.Errorf("docs/OPERATIONS.md documents %s but no pipeline stage registers it", name)
	}
}
