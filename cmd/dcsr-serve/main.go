// Command dcsr-serve is the dcSR origin server: it loads one or more
// artifacts produced by dcsr-prepare and serves manifests, per-segment
// sub-streams and micro models to dcsr-play clients over TCP. With
// several videos registered, clients route requests by content digest
// (see docs/SERVING.md); the first video is the default for old clients.
//
// Usage:
//
//	dcsr-prepare -out /tmp/news -genre news && dcsr-serve -in /tmp/news
//	dcsr-serve -in /tmp/video1,/tmp/video2 -listen 127.0.0.1:8090   # multi-video fleet
//	dcsr-serve -in /tmp/news -obs-addr 127.0.0.1:9090              # + debug sidecar
//	dcsr-serve -in /tmp/news -max-inflight 64 -max-clients 256
//
// -max-inflight caps concurrently served requests; -max-clients caps
// accepted connections. Load past either bound is shed with a typed
// retry-after rejection that client retry policies honor as a backoff
// hint (docs/SERVING.md covers tuning both).
//
// With -obs-addr set, a debug HTTP sidecar serves /metrics (text, or
// ?format=json — each counter's and histogram's lifetime values and
// its rolling-window rate and p50/p95/p99), /debug/trace (the last
// retained server-side spans; ?id=<trace_id> for every span of one
// wire-propagated trace — the ID a `dcsr-play -trace` client prints)
// and the standard /debug/pprof endpoints; structured logs go to stderr.
// Without it (the default) behaviour and output are unchanged. SIGINT
// drains the open connections and exits.
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
	"strings"
	"time"

	"dcsr/internal/core"
	"dcsr/internal/obs"
	"dcsr/internal/transport"
)

func main() {
	in := flag.String("in", "", "artifact directory (or comma-separated directories) from dcsr-prepare (required)")
	listen := flag.String("listen", "127.0.0.1:8090", "TCP listen address")
	obsAddr := flag.String("obs-addr", "", "debug HTTP sidecar address for /metrics, /debug/trace and pprof (off when empty)")
	maxInflight := flag.Int("max-inflight", 0, "admission control: concurrently served requests across all connections; excess load is shed with a typed retry-after (0 = unlimited)")
	maxClients := flag.Int("max-clients", 0, "admission control: accepted connections; over-capacity dials get one typed retry-after and are closed (0 = unlimited)")
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "dcsr-serve: -in is required (write an artifact with dcsr-prepare -out)")
		flag.Usage()
		os.Exit(2)
	}

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

	// Every -in directory becomes one hosted video; the first is the
	// default for clients that never select a digest.
	var dirs []string
	var preps []*core.Prepared
	for _, dir := range strings.Split(*in, ",") {
		dir = strings.TrimSpace(dir)
		prep, err := core.Load(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcsr-serve: %v\n", err)
			os.Exit(1)
		}
		dirs, preps = append(dirs, dir), append(preps, prep)
	}

	srv := transport.NewFleetServer()
	srv.Obs = o
	srv.Admission = transport.AdmissionConfig{
		MaxInflight: *maxInflight,
		MaxConns:    *maxClients,
	}
	for i, prep := range preps {
		digest, err := srv.Register(prep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcsr-serve: registering %s: %v\n", dirs[i], err)
			os.Exit(1)
		}
		fmt.Printf("registered %s: %d segments + %d micro models, digest %s\n",
			dirs[i], len(prep.Segments), len(prep.Models), digest)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcsr-serve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("serving %d video(s) on %s (ctrl-c to stop)\n", len(preps), ln.Addr())
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

	// One SIGINT drains the origin; a second kills the process the usual
	// way (the handler is only registered once).
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		signal.Stop(sig)
		fmt.Println("\ninterrupted; shutting down (draining connections, 5s grace)")
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
