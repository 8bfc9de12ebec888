// Command dcsr-serve is the dcSR origin server: it loads one or more
// artifacts produced by dcsr-prepare (or prepares them in-process from
// synthetic clips) and serves manifests, per-segment sub-streams and
// micro models to dcsr-play clients over TCP. With several videos
// registered, clients route requests by content digest (see
// docs/SERVING.md); the first video is the default for old clients.
//
// Usage:
//
//	dcsr-serve -in /tmp/video1 -listen 127.0.0.1:8090
//	dcsr-serve -in /tmp/video1,/tmp/video2                # multi-video fleet
//	dcsr-serve -genre sports,news -listen 127.0.0.1:8090  # prepare in-process
//	dcsr-serve -genre news -obs-addr 127.0.0.1:9090       # + debug sidecar
//	dcsr-serve -genre news -max-inflight 64 -max-clients 256
//
// -max-inflight caps concurrently served requests; -max-clients caps
// accepted connections. Load past either bound is shed with a typed
// retry-after rejection that client retry policies honor as a backoff
// hint (docs/SERVING.md covers tuning both).
//
// With -obs-addr set, a debug HTTP sidecar serves /metrics (text, or
// ?format=json — including the rolling-window rate and p50/p95/p99
// series), /debug/trace (last Prepare/Play span trees as JSON),
// /debug/trace?id=<trace_id> (every retained server-side span of one
// wire-propagated trace — the ID a `dcsr-play -trace` client prints)
// and the standard /debug/pprof endpoints; structured logs go to
// stderr. Without it (the default) behaviour and output are unchanged.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"dcsr/internal/core"
	"dcsr/internal/edsr"
	"dcsr/internal/obs"
	"dcsr/internal/splitter"
	"dcsr/internal/transport"
	"dcsr/internal/vae"
	"dcsr/internal/video"
)

func main() {
	in := flag.String("in", "", "artifact directory (or comma-separated directories) from dcsr-prepare")
	listen := flag.String("listen", "127.0.0.1:8090", "TCP listen address")
	genreName := flag.String("genre", "", "prepare synthetic clips of these comma-separated genres instead of loading -in")
	w := flag.Int("w", 80, "frame width for -genre mode")
	h := flag.Int("h", 48, "frame height for -genre mode")
	seed := flag.Int64("seed", 7, "seed for -genre mode")
	qp := flag.Int("qp", 51, "encoder QP for -genre mode")
	steps := flag.Int("steps", 300, "training steps for -genre mode")
	int8Flag := flag.Bool("int8", false, "for -genre mode: run the quantize_int8 calibration stage so gated clusters serve on the int8 kernels (artifacts from dcsr-prepare -int8 carry this through -in already)")
	deltaFlag := flag.Bool("delta", false, "for -genre mode: run the delta_encode stage so gated clusters ship as backbone + dcW5 deltas (artifacts from dcsr-prepare -delta carry this through -in already)")
	obsAddr := flag.String("obs-addr", "", "debug HTTP sidecar address for /metrics, /debug/trace and pprof (off when empty)")
	checkpoint := flag.String("checkpoint", "", "checkpoint directory for -genre mode: an interrupted Prepare resumes from its last completed stage on restart, and a finished one is an artifact -in serves")
	maxInflight := flag.Int("max-inflight", 0, "admission control: concurrently served requests across all connections; excess load is shed with a typed retry-after (0 = unlimited)")
	maxClients := flag.Int("max-clients", 0, "admission control: accepted connections; over-capacity dials get one typed retry-after and are closed (0 = unlimited)")
	flag.Parse()

	// One SIGINT cancels whatever is running: an in-flight Prepare stops
	// within a training step (resumable via -checkpoint), a serving
	// origin drains gracefully. A second SIGINT kills the process the
	// usual way (the handler is only registered once).
	ctx, cancel := context.WithCancel(context.Background())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		signal.Stop(sig)
		fmt.Println("\ninterrupted")
		cancel()
	}()

	// Observability is always collected (it is nearly free) but only
	// exposed — and logged — when the sidecar is enabled.
	o := obs.New()
	if *obsAddr != "" {
		o.Log = obs.NewLogger(os.Stderr, obs.LevelInfo)
	}
	// Pre-register the stable metric surface so /metrics always lists
	// the core series, even before any traffic or playback.
	for _, name := range []string{
		"transport_requests_total", "transport_bytes_in_total",
		"transport_bytes_out_total", "transport_not_found_total",
		"cache_hits_total", "cache_misses_total",
	} {
		//lint:allow metricnames pre-registration loop over the documented literal names in the slice above; each is pinned to docs at its real call site
		o.Counter(name)
	}

	// Every -in directory and every -genre clip becomes one hosted
	// video; the first is the default for clients that never select a
	// digest. Sources are a pair of (label, prepared stream).
	type source struct {
		label string
		prep  *core.Prepared
	}
	var sources []source
	if *in == "" && *genreName == "" {
		fmt.Fprintln(os.Stderr, "dcsr-serve: one of -in or -genre is required")
		flag.Usage()
		os.Exit(2)
	}
	if *in != "" {
		for _, dir := range strings.Split(*in, ",") {
			dir = strings.TrimSpace(dir)
			prep, err := core.Load(dir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dcsr-serve: %v\n", err)
				os.Exit(1)
			}
			sources = append(sources, source{dir, prep})
		}
	}
	if *genreName != "" {
		names := strings.Split(*genreName, ",")
		for i, name := range names {
			name = strings.TrimSpace(name)
			var genre video.Genre
			found := false
			for _, g := range video.AllGenres() {
				if g.String() == name {
					genre, found = g, true
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "dcsr-serve: unknown genre %q\n", name)
				os.Exit(2)
			}
			// Offset the seed per clip so repeated genres still produce
			// content-distinct videos (registration rejects duplicates).
			cseed := *seed + int64(i)
			gc := video.GenreConfig(genre, *w, *h, cseed)
			gc.MinFrames, gc.MaxFrames = 5, 9
			clip := video.Generate(gc)
			fmt.Printf("preparing in-process: %s\n", clip)
			cp := *checkpoint
			if cp != "" && len(names) > 1 {
				cp = filepath.Join(cp, fmt.Sprintf("%s-%d", name, i))
			}
			prep, err := core.PrepareCtx(ctx, clip.YUVFrames(), clip.FPS, core.ServerConfig{
				QP:            *qp,
				Split:         splitter.Config{Threshold: 14, MinLen: 3},
				VAE:           vae.Config{ImgSize: 16, LatentDim: 8, BaseCh: 4},
				VAETrain:      vae.TrainOptions{Epochs: 25, BatchSize: 4, Seed: cseed},
				MicroConfig:   edsr.Config{Filters: 8, ResBlocks: 2},
				Train:         edsr.TrainOptions{Steps: *steps, BatchSize: 2, PatchSize: 16},
				Quant:         core.QuantConfig{Enabled: *int8Flag},
				Delta:         core.DeltaConfig{Enabled: *deltaFlag},
				Seed:          cseed,
				CheckpointDir: cp,
				Obs:           o,
			})
			if err != nil {
				if errors.Is(err, context.Canceled) && *checkpoint != "" {
					fmt.Printf("prepare interrupted; completed stages are checkpointed in %s — rerun to resume\n", *checkpoint)
					os.Exit(1)
				}
				fmt.Fprintf(os.Stderr, "dcsr-serve: %v\n", err)
				os.Exit(1)
			}
			sources = append(sources, source{name, prep})
		}
	}

	srv := transport.NewFleetServer()
	srv.Obs = o
	srv.Log = o.Log
	srv.Admission = transport.AdmissionConfig{
		MaxInflight: *maxInflight,
		MaxConns:    *maxClients,
	}
	for _, src := range sources {
		digest, err := srv.Register(src.prep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcsr-serve: registering %s: %v\n", src.label, err)
			os.Exit(1)
		}
		fmt.Printf("registered %s: %d segments + %d micro models, digest %s\n",
			src.label, len(src.prep.Segments), len(src.prep.Models), digest)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcsr-serve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("serving %d video(s) on %s (ctrl-c to stop)\n", len(sources), ln.Addr())
	if *obsAddr != "" {
		obsLn, err := net.Listen("tcp", *obsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcsr-serve: obs sidecar: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("obs sidecar on http://%s (/metrics /debug/trace /debug/pprof/)\n", obsLn.Addr())
		go func() {
			if err := http.Serve(obsLn, o.Handler()); err != nil {
				o.Log.Error("obs sidecar stopped", "err", err)
			}
		}()
	}

	go func() {
		<-ctx.Done()
		fmt.Println("shutting down (draining connections, 5s grace)")
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		if err := srv.Shutdown(sctx); err != nil {
			fmt.Fprintf(os.Stderr, "dcsr-serve: shutdown: %v\n", err)
		}
	}()
	// Shutdown closes the listener, so Serve's accept error wraps
	// net.ErrClosed on a clean drain.
	if err := srv.Serve(ln); err != nil && !errors.Is(err, net.ErrClosed) {
		fmt.Fprintf(os.Stderr, "dcsr-serve: %v\n", err)
	}
}
