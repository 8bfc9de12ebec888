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
// routes the playback at one hosted video (docs/SERVING.md). Either way
// the same playback engine runs with the same options (-no-cache,
// -cache-budget, -no-int8), over the loaded artifact or the wire.
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

	"dcsr/internal/codec"
	"dcsr/internal/core"
	"dcsr/internal/edsr"
	"dcsr/internal/faultnet"
	"dcsr/internal/obs"
	"dcsr/internal/quality"
	"dcsr/internal/stream"
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
	cacheBudget := flag.Int64("cache-budget", 0, "micro-model cache budget in bytes (0 = unbounded; past it the LRU model is evicted and lazily re-downloaded); conflicts with -no-cache")
	faultDrop := flag.Float64("fault-drop", 0, "with -addr: probability of dropping a response (fault injection)")
	faultDelay := flag.Duration("fault-delay", 0, "with -addr: inject this extra latency into every response")
	faultSeed := flag.Int64("fault-seed", 1, "with -addr: fault-injection PRNG seed")
	retries := flag.Int("retries", 0, "with -addr: retry budget per request (0 = fail fast)")
	timeout := flag.Duration("timeout", 0, "with -addr: per-request deadline (0 = none)")
	trace := flag.Bool("trace", false, "print the playback's span tree; with -addr the trace ID is queryable on the origin's /debug/trace?id=")
	videoDigest := flag.String("video", "", "with -addr: play the hosted video with this content digest instead of the origin's default")
	listVideos := flag.Bool("list-videos", false, "with -addr: list the origin's hosted videos (digest, segments, models, bytes) and exit")
	flag.Parse()

	var o *obs.Obs
	if *trace {
		o = obs.New()
	}
	opts := stream.DefaultOptions()
	opts.Int8, opts.Obs = !*noInt8, o
	switch {
	case *cacheBudget < 0:
		usagef("-cache-budget %d: the budget is a byte count (0 = unbounded)", *cacheBudget)
	case *noCache && *cacheBudget > 0:
		usagef("-no-cache and -cache-budget %d conflict: a disabled cache has no budget", *cacheBudget)
	case *noCache:
		opts.CacheBudget = 0
	case *cacheBudget > 0:
		opts.CacheBudget = *cacheBudget
	}
	ctx := context.Background()
	var src source
	switch {
	case *addr != "":
		src = dialOrigin(ctx, netOptions{
			addr: *addr, rate: *rate,
			faultDrop: *faultDrop, faultDelay: *faultDelay, faultSeed: *faultSeed,
			retries: *retries, timeout: *timeout, video: *videoDigest, listVideos: *listVideos,
		}, o)
	case *videoDigest != "" || *listVideos:
		fatalf(2, "-video and -list-videos need -addr (digest routing is a serving feature)")
	case *in == "":
		usagef("one of -in or -addr is required")
	default:
		prep, err := core.Load(*in)
		if err != nil {
			fatalf(1, "%v", err)
		}
		fmt.Printf("loaded artifact: %d segments, %d micro models (%s), stream %d bytes\n",
			len(prep.Segments), len(prep.Models), prep.MicroConfig, prep.Manifest.TotalVideoBytes())
		src = source{prep.Manifest, prep.MicroConfig, prep, nil}
	}

	frames, sess, dec, err := play(ctx, src, opts)
	if err != nil {
		fatalf(1, "%v", err)
	}
	printTraces(o)
	fmt.Printf("played %d frames (%d I, %d P, %d B) over %d segments\n",
		dec.Frames(), dec.IFrames, dec.PFrames, dec.BFrames, len(sess.Events))
	fmt.Printf("%d I frames enhanced in-loop (%d on the int8 path)\n", dec.Enhanced, dec.EnhancedInt8)
	fmt.Printf("downloaded: video %d B + models %d B = %d B (%d model downloads, %d cache hits)\n",
		sess.VideoBytes, sess.ModelBytes, sess.TotalBytes(), sess.Downloads, sess.CacheHits)
	if sess.BackboneBytes > 0 || sess.DeltaModelBytes > 0 {
		fmt.Printf("model stream: backbone %d B + deltas %d B + full %d B\n",
			sess.BackboneBytes, sess.DeltaModelBytes, sess.FullModelBytes)
	}
	if sess.Evictions > 0 {
		fmt.Printf("cache budget %d B: %d evictions, %d B resident at end\n",
			opts.CacheBudget, sess.Evictions, sess.CacheBytes)
	}
	if c := src.client; c != nil && (sess.DegradedSegments > 0 || c.Retries > 0 || c.Timeouts > 0 || c.Sheds > 0) {
		fmt.Printf("fault recovery: %d segments degraded (no SR), %d retries, %d timeouts, %d reconnects, %d sheds absorbed, %v stalled\n",
			sess.DegradedSegments, c.Retries, c.Timeouts, c.Reconnects, c.Sheds, c.StallTime)
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
		fatalf(2, "unknown genre %q", *genreName)
	}
	gc := video.GenreConfig(genre, *w, *h, *seed)
	gc.MinFrames, gc.MaxFrames = 5, 9
	orig := video.Generate(gc).YUVFrames()
	if len(orig) != len(frames) {
		fatalf(1, "regenerated clip has %d frames, the stream %d — parameters do not match prepare", len(orig), len(frames))
	}
	low := opts
	low.Enhance, low.Obs = false, nil
	lowFrames, _, _, err := play(ctx, src, low)
	if err != nil {
		fatalf(1, "%v", err)
	}
	var ePSNR, eSSIM, lPSNR, lSSIM float64
	for i := range orig {
		ePSNR += quality.PSNRYUV(orig[i], frames[i])
		eSSIM += quality.SSIMYUV(orig[i], frames[i])
		lPSNR += quality.PSNRYUV(orig[i], lowFrames[i])
		lSSIM += quality.SSIMYUV(orig[i], lowFrames[i])
	}
	n := float64(len(orig))
	fmt.Printf("quality:  LOW  %.2f dB PSNR, %.4f SSIM\n", lPSNR/n, lSSIM/n)
	fmt.Printf("          dcSR %.2f dB PSNR, %.4f SSIM  (%+.2f dB)\n", ePSNR/n, eSSIM/n, (ePSNR-lPSNR)/n)
}

// source is what a playback reads from: a manifest, the micro-model
// configuration, and the stream.Fetcher that downloads the artifacts —
// the loaded *core.Prepared for -in, a transport.Video for -addr (whose
// client is kept for its recovery counters).
type source struct {
	manifest *stream.Manifest
	config   edsr.Config
	fetcher  stream.Fetcher
	client   *transport.Client
}

// play runs one session over src with opts; with opts.Obs set it records
// a play root span with one segment_fetch child per segment.
func play(ctx context.Context, src source, opts stream.Options) ([]*video.YUV, *stream.Session, codec.DecodeStats, error) {
	sess, err := stream.Open(src.manifest, src.config, src.fetcher, opts)
	if err != nil {
		return nil, nil, codec.DecodeStats{}, err
	}
	frames, dec, err := sess.Play(ctx)
	return frames, sess, dec, err
}

// usagef prints a dcsr-play usage error and the flag summary, and exits 2.
func usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dcsr-play: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// fatalf prints a dcsr-play error and exits with code.
func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dcsr-play: "+format+"\n", args...)
	os.Exit(code)
}

// netOptions parameterizes a networked playback: link shaping, fault
// injection, the client's fault-tolerance knobs and the video to play.
type netOptions struct {
	addr       string
	rate       float64
	faultDrop  float64
	faultDelay time.Duration
	faultSeed  int64
	retries    int
	timeout    time.Duration
	video      string
	listVideos bool
}

// printTraces renders every retained span (a player retains only the
// roots it starts) as indented JSON, with a
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

// dialOrigin connects to a dcsr-serve origin over TCP, optionally through
// a throttled and fault-injected link (see docs/OPERATIONS.md for how the
// knobs interact), and returns the video to play — or, with -list-videos,
// prints the origin's directory and exits.
func dialOrigin(ctx context.Context, opt netOptions, o *obs.Obs) source {
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
		fatalf(1, "%v", err)
	}
	client := transport.NewClient(conn)
	client.Redial = dial
	client.Retry = transport.RetryPolicy{
		MaxRetries: opt.retries,
		Timeout:    opt.timeout,
		Seed:       opt.faultSeed,
	}
	client.Obs = o
	if opt.listVideos {
		dir, err := client.VideosCtx(ctx)
		if err != nil {
			fatalf(1, "%v", err)
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
		os.Exit(0)
	}
	v := client.Video(0)
	if opt.video != "" {
		if v, err = client.VideoByDigest(ctx, opt.video); err != nil {
			fatalf(1, "%v", err)
		}
		fmt.Printf("selected video %s\n", opt.video)
	}
	wm, err := v.Manifest(ctx)
	if err != nil {
		fatalf(1, "%v", err)
	}
	fmt.Printf("streaming from %s: %d segments, %d micro models (%s)\n",
		opt.addr, len(wm.Segments), len(wm.Models), wm.MicroConfig)
	return source{wm.Manifest(), wm.MicroConfig, v, client}
}
