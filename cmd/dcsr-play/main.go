// Command dcsr-play simulates client-side dcSR playback of an artifact
// produced by dcsr-prepare: it walks the streaming session (downloading
// segments and micro models with caching per the paper's Algorithm 1) and
// decodes the stream with each segment's micro model patched into the
// decoder's I-frame enhancement hook.
//
// When the original clip parameters are given (-genre/-w/-h/-seed matching
// the prepare invocation), it also reports PSNR/SSIM against the pristine
// source and against the unenhanced LOW playback.
//
// With -addr it streams from a dcsr-serve origin instead, where the link
// can be shaped (-rate), faults can be injected (-fault-drop,
// -fault-delay, -fault-seed) and the client's fault tolerance configured
// (-retries, -timeout); see docs/OPERATIONS.md. Against a multi-video
// origin, -list-videos prints the hosted directory and -video <digest>
// routes the playback at one hosted video (docs/SERVING.md).
//
// -trace prints the playback's span tree as JSON when it finishes. Over
// -addr the client also propagates its trace context on the wire, so the
// printed trace ID can be looked up on the origin's observability
// endpoint (`/debug/trace?id=<trace_id>`) to see the same session from
// the server's side, attempt by attempt.
//
// Usage:
//
//	dcsr-play -in /tmp/video1 -genre news -w 80 -h 48 -seed 7
//	dcsr-play -addr :8990 -rate 65536 -fault-drop 0.2 -retries 3 -timeout 2s
//	dcsr-play -addr :8990 -retries 2 -trace
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"dcsr/internal/core"
	"dcsr/internal/faultnet"
	"dcsr/internal/obs"
	"dcsr/internal/quality"
	"dcsr/internal/transport"
	"dcsr/internal/video"
)

func main() {
	in := flag.String("in", "", "artifact directory from dcsr-prepare")
	addr := flag.String("addr", "", "stream from a dcsr-serve origin instead of -in (host:port)")
	rate := flag.Float64("rate", 0, "simulated downlink bytes/s when using -addr (0 = unthrottled)")
	genreName := flag.String("genre", "", "genre used at prepare time (enables quality metrics)")
	w := flag.Int("w", 80, "frame width used at prepare time")
	h := flag.Int("h", 48, "frame height used at prepare time")
	seed := flag.Int64("seed", 7, "seed used at prepare time")
	noCache := flag.Bool("no-cache", false, "disable micro-model caching (ablation)")
	noInt8 := flag.Bool("no-int8", false, "force float32 enhancement even for models the manifest advertises as int8-calibrated (precision ablation)")
	cacheBudget := flag.Int64("cache-budget", 0, "micro-model cache budget in bytes (0 = unbounded; past it the LRU model is evicted and lazily re-downloaded)")
	faultDrop := flag.Float64("fault-drop", 0, "with -addr: probability of dropping a response (fault injection)")
	faultDelay := flag.Duration("fault-delay", 0, "with -addr: inject this extra latency into every response")
	faultSeed := flag.Int64("fault-seed", 1, "with -addr: fault-injection PRNG seed")
	retries := flag.Int("retries", 0, "with -addr: retry budget per request (0 = fail fast)")
	timeout := flag.Duration("timeout", 0, "with -addr: per-request deadline (0 = none)")
	trace := flag.Bool("trace", false, "print the playback's span tree; with -addr the trace ID is queryable on the origin's /debug/trace?id=")
	videoDigest := flag.String("video", "", "with -addr: play the hosted video with this content digest instead of the origin's default")
	listVideos := flag.Bool("list-videos", false, "with -addr: list the origin's hosted videos (digest, segments, models, bytes) and exit")
	flag.Parse()

	if *addr != "" {
		playFromNetwork(netOptions{
			addr: *addr, rate: *rate,
			faultDrop: *faultDrop, faultDelay: *faultDelay, faultSeed: *faultSeed,
			retries: *retries, timeout: *timeout, cacheBudget: *cacheBudget,
			trace: *trace, video: *videoDigest, listVideos: *listVideos,
			noInt8: *noInt8,
		})
		return
	}
	if *videoDigest != "" || *listVideos {
		fmt.Fprintln(os.Stderr, "dcsr-play: -video and -list-videos need -addr (digest routing is a serving feature)")
		os.Exit(2)
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "dcsr-play: one of -in or -addr is required")
		flag.Usage()
		os.Exit(2)
	}
	prep, err := core.Load(*in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcsr-play: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("loaded artifact: %d segments, %d micro models (%s), stream %d bytes\n",
		len(prep.Segments), len(prep.Models), prep.MicroConfig, prep.Manifest.TotalVideoBytes())

	player := core.NewPlayer(prep)
	player.UseCache = !*noCache
	player.Int8 = !*noInt8
	player.CacheBudget = *cacheBudget
	var o *obs.Obs
	if *trace {
		o = obs.New()
		player.Obs = o
	}
	res, err := player.Play()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcsr-play: %v\n", err)
		os.Exit(1)
	}
	printTraces(o)
	fmt.Printf("decoded %d frames (%d I, %d P, %d B), %d I frames enhanced (%d on the int8 path)\n",
		res.Decode.Frames(), res.Decode.IFrames, res.Decode.PFrames, res.Decode.BFrames,
		res.Decode.Enhanced, res.Decode.EnhancedInt8)
	fmt.Printf("downloaded: video %d B + models %d B = %d B (%d model downloads, %d cache hits)\n",
		res.Session.VideoBytes, res.Session.ModelBytes, res.TotalBytes(),
		res.Session.Downloads, res.Session.CacheHits)
	if res.BackboneBytes > 0 || res.DeltaModelBytes > 0 {
		fmt.Printf("model stream: backbone %d B + deltas %d B + full %d B\n",
			res.BackboneBytes, res.DeltaModelBytes, res.FullModelBytes)
	}
	if res.Evictions > 0 {
		fmt.Printf("cache budget %d B: %d evictions, %d B resident at end\n",
			*cacheBudget, res.Evictions, res.CacheBytes)
	}

	if *genreName == "" {
		return
	}
	var genre video.Genre
	found := false
	for _, g := range video.AllGenres() {
		if g.String() == *genreName {
			genre, found = g, true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "dcsr-play: unknown genre %q\n", *genreName)
		os.Exit(2)
	}
	gc := video.GenreConfig(genre, *w, *h, *seed)
	gc.MinFrames, gc.MaxFrames = 5, 9
	clip := video.Generate(gc)
	orig := clip.YUVFrames()
	if len(orig) != len(res.Frames) {
		fmt.Fprintf(os.Stderr, "dcsr-play: regenerated clip has %d frames, artifact %d — parameters do not match prepare\n",
			len(orig), len(res.Frames))
		os.Exit(1)
	}
	lowPlayer := core.NewPlayer(prep)
	lowPlayer.Enhance = false
	lowRes, err := lowPlayer.Play()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcsr-play: %v\n", err)
		os.Exit(1)
	}
	var ePSNR, eSSIM, lPSNR, lSSIM float64
	for i := range orig {
		ePSNR += quality.PSNRYUV(orig[i], res.Frames[i])
		eSSIM += quality.SSIMYUV(orig[i], res.Frames[i])
		lPSNR += quality.PSNRYUV(orig[i], lowRes.Frames[i])
		lSSIM += quality.SSIMYUV(orig[i], lowRes.Frames[i])
	}
	n := float64(len(orig))
	fmt.Printf("quality:  LOW  %.2f dB PSNR, %.4f SSIM\n", lPSNR/n, lSSIM/n)
	fmt.Printf("          dcSR %.2f dB PSNR, %.4f SSIM  (%+.2f dB)\n", ePSNR/n, eSSIM/n, (ePSNR-lPSNR)/n)
}

// netOptions parameterizes a networked playback: link shaping, fault
// injection, and the client's fault-tolerance knobs.
type netOptions struct {
	addr        string
	rate        float64
	faultDrop   float64
	faultDelay  time.Duration
	faultSeed   int64
	retries     int
	timeout     time.Duration
	cacheBudget int64
	trace       bool
	video       string
	listVideos  bool
	noInt8      bool
}

// printTraces renders every retained root span as indented JSON, with a
// pointer from each trace ID to the origin-side lookup. A nil Obs (the
// -trace flag unset) prints nothing.
func printTraces(o *obs.Obs) {
	if o == nil {
		return
	}
	for _, root := range o.Trace.Traces() {
		if root.TraceID != "" {
			fmt.Printf("trace %s (server-side spans: /debug/trace?id=%s on the origin's -obs-addr)\n",
				root.TraceID, root.TraceID)
		}
	}
	if _, err := os.Stdout.Write(o.Trace.TracesJSON()); err != nil {
		fmt.Fprintf(os.Stderr, "dcsr-play: %v\n", err)
	}
	fmt.Println()
}

// playFromNetwork streams from a dcsr-serve origin over TCP, optionally
// through a throttled and fault-injected link (see docs/OPERATIONS.md for
// how the knobs interact).
func playFromNetwork(opt netOptions) {
	var inj *faultnet.Injector
	if opt.faultDrop > 0 || opt.faultDelay > 0 {
		fc := faultnet.Config{Seed: opt.faultSeed, DropRate: opt.faultDrop}
		if opt.faultDelay > 0 {
			// A fixed extra latency on every response.
			fc.DelayRate = 1
			fc.Delay = opt.faultDelay
		}
		inj = faultnet.New(fc)
	}
	dial := func() (io.ReadWriter, error) {
		conn, err := net.Dial("tcp", opt.addr)
		if err != nil {
			return nil, err
		}
		var rw io.ReadWriter = conn
		if opt.rate > 0 {
			rw = transport.NewThrottledConn(rw, opt.rate)
		}
		if inj != nil {
			rw = inj.Wrap(rw)
		}
		return rw, nil
	}
	conn, err := dial()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcsr-play: %v\n", err)
		os.Exit(1)
	}
	client := transport.NewClient(conn)
	client.Redial = dial
	client.CacheBudget = opt.cacheBudget
	client.NoInt8 = opt.noInt8
	client.Retry = transport.RetryPolicy{
		MaxRetries: opt.retries,
		Timeout:    opt.timeout,
		Seed:       opt.faultSeed,
	}
	var o *obs.Obs
	if opt.trace {
		o = obs.New()
		client.Obs = o
	}
	ctx := context.Background()
	if opt.listVideos {
		dir, err := client.VideosCtx(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcsr-play: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%d video(s) hosted on %s:\n", len(dir.Videos), opt.addr)
		for _, v := range dir.Videos {
			def := ""
			if v.ID == 0 {
				def = "  (default)"
			}
			fmt.Printf("  %s  %d segments, %d models, %d B video + %d B models, %d fps%s\n",
				v.Digest, v.Segments, v.Models, v.VideoBytes, v.ModelBytes, v.FPS, def)
		}
		return
	}
	if opt.video != "" {
		if err := client.SelectVideoCtx(ctx, opt.video); err != nil {
			fmt.Fprintf(os.Stderr, "dcsr-play: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("selected video %s\n", opt.video)
	}
	frames, stats, err := client.PlayCtx(ctx, true)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcsr-play: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("streamed %d frames over %d segments from %s\n", len(frames), stats.Segments, opt.addr)
	fmt.Printf("downloaded: video %d B + models %d B (%d model downloads, %d cache hits)\n",
		stats.VideoBytes, stats.ModelBytes, stats.ModelDownloads, stats.CacheHits)
	if stats.BackboneBytes > 0 || stats.DeltaModelBytes > 0 {
		fmt.Printf("model stream: backbone %d B + deltas %d B + full %d B\n",
			stats.BackboneBytes, stats.DeltaModelBytes, stats.FullModelBytes)
	}
	fmt.Printf("%d I frames enhanced in-loop (%d on the int8 path)\n",
		stats.Enhanced, stats.EnhancedInt8)
	if stats.Evictions > 0 {
		fmt.Printf("cache budget %d B: %d evictions, %d B resident at end\n",
			opt.cacheBudget, stats.Evictions, stats.CacheBytes)
	}
	if stats.DegradedSegments > 0 || client.Retries > 0 || client.Timeouts > 0 || client.Sheds > 0 {
		fmt.Printf("fault recovery: %d segments degraded (no SR), %d retries, %d timeouts, %d reconnects, %d sheds absorbed, %v stalled\n",
			stats.DegradedSegments, client.Retries, client.Timeouts, client.Reconnects, client.Sheds, client.StallTime)
	}
	printTraces(o)
}
