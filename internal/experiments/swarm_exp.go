package experiments

import (
	"context"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"dcsr/internal/core"
	"dcsr/internal/faultnet"
	"dcsr/internal/obs"
	"dcsr/internal/stream"
	"dcsr/internal/transport"
	"dcsr/internal/video"
)

// SwarmConfig shapes the fleet-load experiment. The zero value runs the
// headline cell from docs/SERVING.md: 1000 concurrent clients against an
// admission budget of 64 with 2% response loss.
type SwarmConfig struct {
	// Sessions is how many synthetic clients stream concurrently.
	Sessions int
	// DropRate is the faultnet response-loss probability per exchange
	// (negative disables fault injection entirely).
	DropRate float64
	// MaxInflight is the server's global admission budget; requests
	// beyond it are shed with a typed retry-after, never queued.
	MaxInflight int
	// PerConnRate and PerConnBurst shape the per-connection token
	// bucket — the fairness mechanism. Sessions run a tight request
	// loop, so without a per-client budget whoever holds an inflight
	// slot monopolizes it; with one, every client is paced to the same
	// sustainable rate and the fairness index stays near 1.
	PerConnRate  float64
	PerConnBurst float64
	// RetryAfter is the hint attached to concurrency sheds.
	RetryAfter time.Duration
	// Duration is the per-session measurement window: every session
	// loops its playlist walk until its window closes, so all sessions
	// are active for the same wall time and per-session ops are
	// comparable (the fairness index is Jain over exactly those counts).
	Duration time.Duration
	// Ramp staggers session starts evenly across this span. Without it
	// Sessions×PerConnBurst ops land on the admission gate in the same
	// instant and the thundering herd dominates the latency tail; with
	// it the tail reflects steady-state contention, which is what
	// capacity planning needs.
	Ramp time.Duration
	// Clock supplies timestamps for latency measurement; nil means the
	// wall clock. Injected so the experiment's control flow stays free
	// of ambient time sources.
	Clock func() time.Time
}

func (c SwarmConfig) withDefaults() SwarmConfig {
	if c.Sessions <= 0 {
		c.Sessions = 1000
	}
	if c.DropRate == 0 {
		c.DropRate = 0.02
	}
	if c.DropRate < 0 {
		c.DropRate = 0
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	// The per-conn rate is sized so the aggregate offered load
	// (Sessions × PerConnRate) stays below the admitted-op capacity of
	// the inflight gate; the fair rate bucket must be the binding
	// constraint or admission degenerates into a racy free-for-all at
	// the global gate and the fairness index collapses.
	if c.PerConnRate <= 0 {
		c.PerConnRate = 5
	}
	if c.PerConnBurst <= 0 {
		c.PerConnBurst = 3
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 2 * time.Millisecond
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Ramp <= 0 {
		c.Ramp = time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// SwarmOpStats summarizes client-observed latency for one request kind.
// Latencies are end-to-end per successful call, including any shed
// backoff and drop-recovery retries inside that call.
type SwarmOpStats struct {
	Count int     `json:"count"`
	P50ms float64 `json:"p50_ms"`
	P99ms float64 `json:"p99_ms"`
	Maxms float64 `json:"max_ms"`
}

// SwarmResult is the machine-readable outcome of the swarm experiment
// (BENCH_swarm.json embeds it). The invariant the experiment pins:
// HardErrors == 0 while Sheds > 0 — overload is shed as typed,
// retryable rejections that clients absorb, never as client failures.
type SwarmResult struct {
	Sessions    int `json:"sessions"`
	Videos      int `json:"videos"`
	MaxInflight int `json:"max_inflight"`
	// Requests counts every request frame the server read — shed ones
	// included; Sheds counts the typed rejections among them, so
	// ShedRate = Sheds/Requests is the fraction of offered load shed.
	Requests    int64   `json:"requests"`
	Sheds       int64   `json:"sheds"`
	ShedRate    float64 `json:"shed_rate"`
	ClientSheds int     `json:"client_sheds"`
	// Drops is how many responses faultnet destroyed; Retries and
	// Reconnects are the clients' recovery work for them.
	Drops      int `json:"faultnet_drops"`
	Retries    int `json:"client_retries"`
	Reconnects int `json:"client_reconnects"`
	// HardErrors counts sessions that failed outright. Must be zero:
	// sheds and drops are both absorbed by the retry policy.
	HardErrors int `json:"hard_errors"`
	// FairnessJain is Jain's index over the ops each session completed
	// inside the shared measurement window: (Σx)²/(n·Σx²), 1.0 =
	// perfectly even service, 1/n = one session monopolized the server.
	FairnessJain float64 `json:"fairness_jain"`
	// WindowSec is the configured measurement window; ElapsedSec the
	// actual wall time including the slowest session's final op.
	WindowSec    float64 `json:"window_sec"`
	ElapsedSec   float64 `json:"elapsed_sec"`
	InflightPeak int64   `json:"inflight_peak"`

	Manifest  SwarmOpStats `json:"manifest"`
	Directory SwarmOpStats `json:"directory"`
	Segment   SwarmOpStats `json:"segment"`
	Model     SwarmOpStats `json:"model"`
}

// swarm op indices for latency sample buckets.
const (
	swarmOpManifest = iota
	swarmOpDirectory
	swarmOpSegment
	swarmOpModel
	swarmOpCount
)

// swarmSession is what one synthetic client hands back to the collector.
type swarmSession struct {
	samples    [swarmOpCount][]float64 // per-op latencies, milliseconds
	ops        int
	sheds      int
	retries    int
	reconnects int
	err        error
}

// timedFetcher times every download of the session's wire backend into
// the segment or model latency bucket.
type timedFetcher struct {
	f     stream.Fetcher
	timed func(op int, f func() error) error
}

func (t timedFetcher) Fetch(ctx context.Context, kind stream.Kind, arg int) (data []byte, err error) {
	op := swarmOpModel
	if kind == stream.KindSegment {
		op = swarmOpSegment
	}
	err = t.timed(op, func() error {
		data, err = t.f.Fetch(ctx, kind, arg)
		return err
	})
	return data, err
}

func pctl(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func swarmStats(samples []float64) SwarmOpStats {
	sort.Float64s(samples)
	st := SwarmOpStats{Count: len(samples), P50ms: pctl(samples, 0.50), P99ms: pctl(samples, 0.99)}
	if len(samples) > 0 {
		st.Maxms = samples[len(samples)-1]
	}
	return st
}

// jain computes Jain's fairness index over per-session service shares.
func jain(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// ExperimentSwarm is the fleet-load harness: sc.Sessions synthetic
// clients concurrently stream from ONE server hosting two content-
// distinct videos, routed by digest, through lossy faultnet links, while
// admission control sheds everything past sc.MaxInflight with typed
// retry-after hints. Each session lists the directory, selects its video
// by digest, then loops the playback engine's fetch step over every
// segment (stream.Session.Fetch: micro-models on first reference) until
// the shared measurement window closes — the real playback access
// pattern, minus decode (the server under test is the transport layer,
// not the codec).
//
// The experiment measures what docs/SERVING.md needs for capacity
// planning: per-op p50/p99 latency under contention, the shed rate at
// this offered load, Jain's fairness index across sessions, and — the
// acceptance invariant — zero hard client errors: every shed and every
// injected drop is absorbed by the retry policy.
func ExperimentSwarm(cfg EvalConfig, sc SwarmConfig) (Table, *SwarmResult, error) {
	sc = sc.withDefaults()
	clock := sc.Clock

	// Two content-distinct videos: different genres, different seeds.
	gA, gB := video.GenreNews, video.GenreSports
	if len(cfg.Genres) > 1 {
		gA, gB = cfg.Genres[0], cfg.Genres[1]
	}
	cfgB := cfg
	cfgB.Seed = cfg.Seed + 1
	var preps [2]*core.Prepared
	for i, c := range []struct {
		cfg EvalConfig
		g   video.Genre
	}{{cfg, gA}, {cfgB, gB}} {
		clip := c.cfg.clip(c.g)
		prep, err := core.Prepare(clip.YUVFrames(), clip.FPS, c.cfg.serverConfig())
		if err != nil {
			return Table{}, nil, fmt.Errorf("experiments: swarm prepare %d: %w", i, err)
		}
		preps[i] = prep
	}

	// One fleet server, its own metric sink (the swarm's counters must
	// not mix with other experiments sharing cfg.Obs).
	srvObs := obs.New()
	srv := transport.NewFleetServer()
	srv.Obs = srvObs
	srv.Admission = transport.AdmissionConfig{
		MaxInflight:  sc.MaxInflight,
		PerConnRate:  sc.PerConnRate,
		PerConnBurst: sc.PerConnBurst,
		RetryAfter:   sc.RetryAfter,
	}
	var digests [2]string
	for i, prep := range preps {
		d, err := srv.Register(prep)
		if err != nil {
			return Table{}, nil, fmt.Errorf("experiments: swarm register %d: %w", i, err)
		}
		digests[i] = d
	}

	// One seeded injector shared by every link, so total loss tracks
	// DropRate across the whole swarm.
	inj := faultnet.New(faultnet.Config{Seed: cfg.Seed, DropRate: sc.DropRate})

	runSession := func(i int) swarmSession {
		// Staggered start (see SwarmConfig.Ramp); each session measures
		// its own full Duration window from its own start.
		time.Sleep(sc.Ramp * time.Duration(i) / time.Duration(sc.Sessions))
		var s swarmSession
		var open []io.Closer
		defer func() {
			for _, c := range open {
				//lint:allow errcheck tearing down net.Pipe ends after the session; double-close of a faulted pipe is expected
				c.Close()
			}
		}()
		dial := func() (io.ReadWriter, error) {
			cconn, sconn := net.Pipe()
			//lint:allow errcheck handler errors here are injected faults and client hangups, counted by the injector and the client's recovery stats
			//lint:allow goleak the handler exits when the session closes both pipe ends in the deferred teardown above
			go func() { _ = srv.ServeConn(sconn) }()
			open = append(open, cconn, sconn)
			return inj.Wrap(cconn), nil
		}
		conn, _ := dial()
		client := transport.NewClient(conn)
		client.Redial = dial
		client.Retry = transport.RetryPolicy{
			// Both budgets are deep because an op under sustained
			// contention makes MANY attempts: each shed retry is a fresh
			// wire exchange that can independently draw a faultnet drop,
			// so the drop budget must cover the worst-case attempt count
			// of one op, not the 2% per-exchange rate. Under transient
			// overload a client waits, it does not fail.
			MaxRetries:  128,
			ShedRetries: 1 << 16,
			BaseDelay:   200 * time.Microsecond,
			MaxDelay:    2 * time.Millisecond,
			Seed:        cfg.Seed + int64(i),
		}

		start := clock()
		timed := func(op int, f func() error) error {
			t0 := clock()
			err := f()
			if err != nil {
				return err
			}
			s.samples[op] = append(s.samples[op], float64(clock().Sub(t0))/float64(time.Millisecond))
			s.ops++
			return nil
		}
		finish := func(err error) swarmSession {
			s.err = err
			s.sheds = client.Sheds
			s.retries = client.Retries
			s.reconnects = client.Reconnects
			return s
		}

		// Every session opens on the default video's manifest; then half
		// the swarm selects each hosted video by digest and refetches that
		// video's manifest.
		ctx := context.Background()
		var wm *transport.WireManifest
		vid := client.Video(0)
		manifest := func() error {
			var err error
			wm, err = vid.Manifest(ctx)
			return err
		}
		if err := timed(swarmOpManifest, manifest); err != nil {
			return finish(fmt.Errorf("session %d manifest: %w", i, err))
		}
		want := digests[i%2]
		if err := timed(swarmOpDirectory, func() error {
			var err error
			vid, err = client.VideoByDigest(ctx, want)
			return err
		}); err != nil {
			return finish(fmt.Errorf("session %d select %s: %w", i, want[:8], err))
		}
		if want != digests[0] {
			if err := timed(swarmOpManifest, manifest); err != nil {
				return finish(fmt.Errorf("session %d manifest after select: %w", i, err))
			}
		}
		sess, err := stream.Open(wm.Manifest(), wm.MicroConfig, timedFetcher{vid, timed},
			stream.Options{Enhance: true, CacheBudget: -1})
		if err != nil {
			return finish(fmt.Errorf("session %d: %w", i, err))
		}
		// Loop the playlist walk until the window closes, so every
		// session is active for the same wall time and per-session op
		// counts are directly comparable (models are fetched on first
		// reference only; later walks replay them from the session cache,
		// like a viewer scrubbing back through the video).
		deadline := start.Add(sc.Duration)
		for clock().Before(deadline) {
			for _, seg := range wm.Segments {
				if !clock().Before(deadline) {
					break
				}
				if _, _, err := sess.Fetch(ctx, seg); err != nil {
					return finish(fmt.Errorf("session %d: %w", i, err))
				}
			}
		}
		// The engine degrades a failed model fetch instead of failing the
		// walk; under this retry budget that is a hard error all the same.
		if sess.DegradedSegments > 0 {
			return finish(fmt.Errorf("session %d: %d segments degraded", i, sess.DegradedSegments))
		}
		return finish(nil)
	}

	t0 := clock()
	results := make([]swarmSession, sc.Sessions)
	var wg sync.WaitGroup
	for i := 0; i < sc.Sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = runSession(i)
		}(i)
	}
	wg.Wait()
	elapsed := clock().Sub(t0)

	res := &SwarmResult{
		Sessions:    sc.Sessions,
		Videos:      len(digests),
		MaxInflight: sc.MaxInflight,
		Sheds:       srvObs.Counter("transport_shed_total").Value(),
		Requests:    srvObs.Counter("transport_requests_total").Value(),
		Drops:       inj.Counts()["drop"],
		WindowSec:   float64(sc.Duration) / float64(time.Second),
		ElapsedSec:  float64(elapsed) / float64(time.Second),
	}
	res.InflightPeak = srvObs.Gauge("transport_inflight_peak").Value()
	if res.Requests > 0 {
		res.ShedRate = float64(res.Sheds) / float64(res.Requests)
	}
	var all [swarmOpCount][]float64
	var opsPerSession []float64
	var firstErr error
	for i := range results {
		s := &results[i]
		res.ClientSheds += s.sheds
		res.Retries += s.retries
		res.Reconnects += s.reconnects
		if s.err != nil {
			res.HardErrors++
			if firstErr == nil {
				firstErr = s.err
			}
			continue
		}
		for op := 0; op < swarmOpCount; op++ {
			all[op] = append(all[op], s.samples[op]...)
		}
		opsPerSession = append(opsPerSession, float64(s.ops))
	}
	res.FairnessJain = jain(opsPerSession)
	res.Manifest = swarmStats(all[swarmOpManifest])
	res.Directory = swarmStats(all[swarmOpDirectory])
	res.Segment = swarmStats(all[swarmOpSegment])
	res.Model = swarmStats(all[swarmOpModel])

	table := Table{
		Title: fmt.Sprintf("Swarm load: %d concurrent clients, %d videos, admission max-inflight %d, drop rate %s",
			sc.Sessions, res.Videos, sc.MaxInflight, f2(sc.DropRate)),
		Header: []string{"op", "count", "p50(ms)", "p99(ms)", "max(ms)"},
	}
	for _, row := range []struct {
		name string
		st   SwarmOpStats
	}{
		{"directory", res.Directory},
		{"manifest", res.Manifest},
		{"segment", res.Segment},
		{"model", res.Model},
	} {
		table.Add(row.name, fmt.Sprint(row.st.Count), f2(row.st.P50ms), f2(row.st.P99ms), f2(row.st.Maxms))
	}
	table.Add("— sheds", fmt.Sprint(res.Sheds), "", "", "")
	table.Add("— shed rate", f3(res.ShedRate), "", "", "")
	table.Add("— fairness (Jain)", f3(res.FairnessJain), "", "", "")
	table.Add("— hard errors", fmt.Sprint(res.HardErrors), "", "", "")

	if firstErr != nil {
		return table, res, fmt.Errorf("experiments: swarm: %d/%d sessions hard-failed, first: %w",
			res.HardErrors, sc.Sessions, firstErr)
	}
	return table, res, nil
}
