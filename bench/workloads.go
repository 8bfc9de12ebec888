package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// gateFrames is the number of frames per cluster the int8 and delta
// quality gates look at, wherever the benchmark turns them on.
const gateFrames = 1

// stream is what set-up leaves behind for the viewer and origin
// workloads: the clip, its published form and a serving origin.
type stream struct {
	clip  *clip
	prep  *prepared
	facts streamFacts
	o     *origin
}

// setupStream is set-up for the viewer and origin workloads: clip
// generation, Prepare, NewServer and listen — everything before the first
// timed sample. gateFrames > 0 publishes int8 + backbone/delta models.
func (r *run) setupStream(ctx context.Context, gateFrames int) (*stream, error) {
	cs := clipSeed(r.prof, r.cfg.seed)
	t0 := time.Now()
	c := genClip(r.prof, cs)
	prep, err := prepareStream(ctx, c, r.prof, r.cfg.seed, r.prof.setupSteps, gateFrames)
	if err != nil {
		return nil, fmt.Errorf("set-up prepare: %w", err)
	}
	t1 := time.Now()
	srv, err := newServer(prep)
	if err != nil {
		return nil, fmt.Errorf("set-up register: %w", err)
	}
	r.set("transport.register_ms", ms(time.Since(t1)))
	o, err := listenAndServe(srv)
	if err != nil {
		return nil, fmt.Errorf("set-up listen: %w", err)
	}
	r.set("setup_s", time.Since(t0).Seconds())
	s := &stream{clip: c, prep: prep, facts: factsOf(prep), o: o}
	r.op(s.facts.segments == r.prof.cues && s.facts.iFrames == r.prof.cues,
		"set-up: %d segments and %d I frames for %d cues", s.facts.segments, s.facts.iFrames, r.prof.cues)
	r.setFacts(s.facts)
	return s, nil
}

// setFacts records what the publisher produced.
func (r *run) setFacts(f streamFacts) {
	r.set("core.clusters", float64(f.clusters))
	r.set("core.int8_models", float64(f.int8Models))
	r.set("core.delta_models", float64(f.deltaModels))
	r.set("core.train_gflop", f.trainGFLOP)
}

// inWindow reports whether operation i of a closed loop should start:
// always for the first min operations, then until the window is over.
func (r *run) inWindow(start time.Time, i, min int) bool {
	return i < min || time.Since(start) < r.cfg.seconds
}

// play is the viewer workload: one viewer, closed loop, a fresh
// connection per session. Each iteration measures start-up (the
// bench-driven walk up to the first enhanced frame) and one whole
// Client.PlayCtx session. int8Delta publishes int8 + backbone/delta
// models and puts the viewer behind the throttled link.
func (r *run) play(ctx context.Context, int8Delta bool) (err error) {
	gate, bps := 0, 0.0
	if int8Delta {
		gate, bps = gateFrames, r.prof.throttleBps
	}
	s, err := r.setupStream(ctx, gate)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := s.o.close(); err == nil {
			err = cerr
		}
	}()
	plain, err := decodePlain(s.prep)
	if err != nil {
		return fmt.Errorf("reference decode: %w", err)
	}
	plainPSNR := meanPSNR(s.clip.frames, plain)

	// Warm-up: one start-up walk runs every kernel a session uses, so
	// pool start and buffer growth stay out of the timed samples.
	if _, err := r.walk(ctx, nil, 0, s.o.addr, bps, true); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if r.cfg.trace {
		return r.playTraced(ctx, s, bps, int8Delta, plainPSNR)
	}

	var fps, startup, alloc sample
	var first string
	var played []*frame
	var st sessionStats
	window := time.Now()
	for i := 0; r.inWindow(window, i, r.prof.minOps); i++ {
		runtime.GC() // every operation starts from the same heap
		w, err := r.walk(ctx, nil, i, s.o.addr, bps, true)
		if r.op(err == nil && w.firstFrame > 0, "start-up %d: no enhanced frame: %v", i, err) {
			startup = append(startup, ms(w.firstFrame))
		}
		runtime.GC()
		before := allocatedMB()
		t := time.Now()
		frames, stats, err := playSession(ctx, s.o.addr, bps)
		wall := time.Since(t)
		if !r.op(err == nil, "session %d: %v", i, err) {
			continue
		}
		alloc = append(alloc, allocatedMB()-before)
		r.checkSession(fmt.Sprintf("session %d", i), s.facts, stats, int8Delta)
		d := digestFrames(frames)
		if first == "" {
			first = d
		}
		r.op(d == first, "session %d: played frames differ from session 0", i)
		fps = append(fps, float64(len(frames))/wall.Seconds())
		played, st = frames, stats
	}
	if len(fps) == 0 || len(startup) == 0 {
		return fmt.Errorf("no session completed: %v", r.problems)
	}
	r.setMedian("throughput", fps, 1)
	r.setMedian("latency_ms", startup, 1)
	r.set("wire_bytes", float64(st.videoBytes+st.modelBytes))
	r.set("model_bytes", float64(st.modelBytes))
	r.setMedian("alloc_mb", alloc, 1)
	r.set("quality.psnr_ratio", meanPSNR(s.clip.frames, played)/plainPSNR)
	return nil
}

// checkSession applies the output self-checks to one played session.
func (r *run) checkSession(what string, f streamFacts, st sessionStats, int8Delta bool) {
	r.op(st.frames == f.frames, "%s: %d frames played, clip has %d", what, st.frames, f.frames)
	r.op(st.enhanced == f.iFrames && st.degraded == 0,
		"%s: %d of %d I frames enhanced, %d segments degraded", what, st.enhanced, f.iFrames, st.degraded)
	r.op(st.faults == 0, "%s: %d retries/timeouts/reconnects/sheds", what, st.faults)
	if int8Delta {
		// A gate fallback must not silently turn this into the
		// float32/full-model workload.
		r.op(st.enhancedInt8 == st.enhanced && st.deltaBytes > 0,
			"%s: %d of %d enhancements on int8, %d delta bytes", what, st.enhancedInt8, st.enhanced, st.deltaBytes)
	} else {
		r.op(st.enhancedInt8 == 0 && st.deltaBytes == 0,
			"%s: float32/full-model session ran %d int8 enhancements, %d delta bytes", what, st.enhancedInt8, st.deltaBytes)
	}
}

// walkResult is one bench-driven session.
type walkResult struct {
	frames     []*frame
	firstFrame time.Duration // dial → first enhanced frame
	wall       time.Duration
	enhanced   int
	int8       int
	requests   int // fetch operations issued: manifest, segments, models
	bytesDown  int64
	faults     int
	root       int // span id of the whole walk
}

// walk drives one viewer session from bench/ through the mux client —
// the only public model-stream fetch — in PlayCtx's order: dial+manifest,
// then per segment fetch, unmarshal, model fetch on first reference,
// int8 arming, decode with the enhancer hooked to I frames. PlayCtx
// returns frames only at the end of a session, so the time to the first
// enhanced frame is measured here. startupOnly joins at one segment (see
// joinSegment) and stops after its I frame; with a nil tracer the walk
// reads the clock twice.
func (r *run) walk(ctx context.Context, tr *tracer, session int, addr string, bps float64, startupOnly bool) (res walkResult, err error) {
	t0 := time.Now()
	res.root = tr.start("walk", session, -1)
	id := tr.start("transport.dial_manifest", session, res.root)
	mux, err := dialMux(addr, bps)
	tr.end(id)
	if err != nil {
		return res, err
	}
	defer func() {
		if cerr := mux.close(); err == nil {
			err = cerr
		}
	}()
	wm := mux.manifest()
	scales := int8Scales(wm)
	models := map[int]*model{}
	res.requests = 1
	segments := wm.Segments
	if startupOnly {
		join := joinSegment(wm)
		segments = segments[join : join+1]
	}
	for _, seg := range segments {
		id = tr.start("transport.segment_fetch", session, res.root)
		data, err := mux.segmentData(ctx, seg.Index)
		tr.end(id)
		if err != nil {
			return res, fmt.Errorf("segment %d: %w", seg.Index, err)
		}
		res.requests++
		id = tr.start("codec.unmarshal", session, res.root)
		sub, err := unmarshalSegment(data)
		tr.end(id)
		if err != nil {
			return res, fmt.Errorf("segment %d: %w", seg.Index, err)
		}
		m := models[seg.ModelLabel]
		if m == nil && seg.ModelLabel >= 0 {
			id = tr.start("transport.model_fetch", session, res.root)
			m, err = mux.fetchModel(ctx, wm, seg.ModelLabel)
			tr.end(id)
			if err != nil {
				return res, fmt.Errorf("model %d: %w", seg.ModelLabel, err)
			}
			res.requests++
			if sc, ok := scales[seg.ModelLabel]; ok {
				id = tr.start("edsr.arm_int8", session, res.root)
				err = armInt8(m, sc)
				tr.end(id)
				if err != nil {
					return res, fmt.Errorf("model %d: %w", seg.ModelLabel, err)
				}
			}
			models[seg.ModelLabel] = m
		}
		if startupOnly {
			sub = firstFrameOnly(sub)
		}
		dec := tr.start("codec.decode", session, res.root)
		frames, enhanced, int8, err := decodeSegment(sub, m, func(enhance func()) {
			e := tr.start("edsr.enhance", session, dec)
			enhance()
			tr.end(e)
			if res.firstFrame == 0 {
				res.firstFrame = time.Since(t0)
			}
		})
		tr.end(dec)
		if err != nil {
			return res, fmt.Errorf("decoding segment %d: %w", seg.Index, err)
		}
		res.frames = append(res.frames, frames...)
		res.enhanced += enhanced
		res.int8 += int8
	}
	res.wall = time.Since(t0)
	tr.end(res.root)
	res.bytesDown, res.faults = mux.traffic()
	return res, nil
}

// The three request kinds of the origin workload's mix.
const (
	opManifest = iota
	opSegment
	opModel
	numOps
)

// fetcher is one viewer connection of the origin workload.
type fetcher struct {
	lat       [numOps]sample // request latency, ms
	mix       sample         // wall time of one whole request mix, ms
	mixes     int
	modelWire int // model bytes of the last mix
	bytesDown int64
	faults    int
	problems  []string
	err       error
	segments  []*segment // the last mix's payloads, verified after the window
	models    map[int]*model
}

// fetchLoop repeats the per-session request mix — 1 manifest, every
// segment, every model — until the window closes; each request waits
// for its reply (closed loop). No decode, no enhance.
func (f *fetcher) fetchLoop(ctx context.Context, r *run, addr string, facts streamFacts, start time.Time) {
	fc, err := dialFetch(addr)
	if err != nil {
		f.err = err
		return
	}
	defer func() {
		if cerr := fc.close(); f.err == nil {
			f.err = cerr
		}
	}()
	timed := func(op int, fn func() error) bool {
		t := time.Now()
		err := fn()
		f.lat[op] = append(f.lat[op], ms(time.Since(t)))
		if err != nil {
			f.problems = append(f.problems, err.Error())
		}
		return err == nil
	}
	for ; r.inWindow(start, f.mixes, 1); f.mixes++ {
		mixStart := time.Now()
		var wm *manifest
		if !timed(opManifest, func() (err error) {
			wm, err = fc.manifest(ctx)
			if err == nil && len(wm.Segments) != facts.segments {
				err = fmt.Errorf("manifest lists %d segments, stream has %d", len(wm.Segments), facts.segments)
			}
			return err
		}) {
			continue
		}
		f.segments, f.models, f.modelWire = f.segments[:0], map[int]*model{}, 0
		for _, seg := range wm.Segments {
			timed(opSegment, func() error {
				sub, err := fc.segment(ctx, seg.Index)
				if err == nil && sub.FrameCount() != seg.End-seg.Start {
					err = fmt.Errorf("segment %d carries %d frames, manifest says %d", seg.Index, sub.FrameCount(), seg.End-seg.Start)
				}
				if err == nil {
					f.segments = append(f.segments, sub)
				}
				return err
			})
		}
		for _, mi := range wm.Models {
			timed(opModel, func() error {
				m, n, err := fc.model(ctx, wm, mi.Label)
				if err == nil && n != mi.Bytes {
					err = fmt.Errorf("model %d is %d bytes, manifest says %d", mi.Label, n, mi.Bytes)
				}
				if err == nil {
					f.models[mi.Label], f.modelWire = m, f.modelWire+n
				}
				return err
			})
		}
		f.mix = append(f.mix, ms(time.Since(mixStart)))
	}
	f.bytesDown, f.faults = fc.traffic()
}

// originFetch is the origin workload: one classic connection per core,
// no admission limits, each looping the request mix. The load generator
// shares the host's cores with the server.
func (r *run) originFetch(ctx context.Context) (err error) {
	s, err := r.setupStream(ctx, 0)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := s.o.close(); err == nil {
			err = cerr
		}
	}()
	plain, err := decodePlain(s.prep)
	if err != nil {
		return fmt.Errorf("reference decode: %w", err)
	}

	fetchers := make([]fetcher, runtime.NumCPU())
	var wg sync.WaitGroup
	runtime.GC()
	before := allocatedMB()
	start := time.Now()
	for i := range fetchers {
		wg.Add(1)
		go func(f *fetcher) {
			defer wg.Done()
			f.fetchLoop(ctx, r, s.o.addr, s.facts, start)
		}(&fetchers[i])
	}
	wg.Wait()
	wall := time.Since(start)
	alloc := allocatedMB() - before

	var all, mix sample
	var lat [numOps]sample
	var mixes, faults int
	var bytesDown int64
	for i := range fetchers {
		f := &fetchers[i]
		if f.err != nil {
			return fmt.Errorf("connection %d: %w", i, f.err)
		}
		for op := range f.lat {
			lat[op] = append(lat[op], f.lat[op]...)
			all = append(all, f.lat[op]...)
		}
		r.attempted += len(f.lat[opManifest]) + len(f.lat[opSegment]) + len(f.lat[opModel])
		r.failed += len(f.problems)
		r.problems = append(r.problems, f.problems...)
		mix = append(mix, f.mix...)
		mixes, faults, bytesDown = mixes+f.mixes, faults+f.faults, bytesDown+f.bytesDown
	}
	r.op(faults == 0, "%d retries/timeouts/reconnects/sheds", faults)

	// What was served must be what was published: byte-identical
	// payloads, and segments that decode to the publisher's own frames.
	last := &fetchers[0]
	var fetched []*frame
	for i, sub := range last.segments {
		r.op(segmentBytesMatch(s.prep, i, sub), "segment %d differs from the published bytes", i)
		frames, _, _, err := decodeSegment(sub, nil, nil)
		if r.op(err == nil, "decoding fetched segment %d: %v", i, err) {
			fetched = append(fetched, frames...)
		}
	}
	for label, m := range last.models {
		r.op(modelBytesMatch(s.prep, label, m), "model %d differs from the published weights", label)
	}
	if !r.op(len(fetched) == len(plain), "fetched segments decode to %d frames, stream has %d", len(fetched), len(plain)) {
		return fmt.Errorf("origin served a different stream: %v", r.problems)
	}

	r.set("throughput", float64(len(all))/wall.Seconds())
	r.setMedian("latency_ms", mix, 1)
	r.set("wire_bytes", float64(bytesDown)/float64(mixes))
	r.set("alloc_mb", alloc/float64(mixes))
	r.set("model_bytes", float64(last.modelWire))
	r.set("quality.psnr_ratio", meanPSNR(s.clip.frames, fetched)/meanPSNR(s.clip.frames, plain))

	r.set("transport.requests", float64(len(all)))
	r.set("transport.bytes_down", float64(bytesDown))
	r.set("transport.retries", float64(faults))
	r.setMedian("transport.manifest_p50_us", lat[opManifest], 1e3)
	r.setMedian("transport.segment_p50_us", lat[opSegment], 1e3)
	r.setMedian("transport.model_p50_us", lat[opModel], 1e3)
	r.set("transport.fetch_p99_ms", all.quantile(0.99))
	r.set("transport.payload_mb_per_s", float64(bytesDown)/1e6/wall.Seconds())
	if r.cfg.trace {
		return r.originProbes(s)
	}
	return nil
}

// prepare is the publisher workload: whole core.PrepareCtx runs on the
// reference clip with the int8 and delta gates on. Set-up is clip
// generation alone, so it is repeated and its median reported.
func (r *run) prepare(ctx context.Context) error {
	var c *clip
	cs := clipSeed(r.prof, r.cfg.seed)
	gen := timeN(5, func() { c = genClip(r.prof, cs) })
	r.setMedian("setup_s", gen, 1e-3)

	var walls, alloc sample
	var prep *prepared
	var first streamFacts
	window := time.Now()
	for i := 0; r.inWindow(window, i, 1); i++ {
		runtime.GC()
		before := allocatedMB()
		t := time.Now()
		p, err := prepareStream(ctx, c, r.prof, r.cfg.seed, r.prof.prepareSteps, gateFrames)
		wall := time.Since(t)
		if !r.op(err == nil, "prepare %d: %v", i, err) {
			continue
		}
		alloc = append(alloc, allocatedMB()-before)
		f := factsOf(p)
		r.op(f.frames == len(c.frames) && f.segments == r.prof.cues && f.iFrames == r.prof.cues && f.clusters >= 2,
			"prepare %d: %d of %d frames, %d segments and %d I frames for %d cues, %d clusters", i, f.frames, len(c.frames), f.segments, f.iFrames, r.prof.cues, f.clusters)
		r.op(f.int8Models == f.clusters && f.deltaModels == f.clusters-1,
			"prepare %d: %d int8 and %d delta models of %d clusters (a gate fell back)", i, f.int8Models, f.deltaModels, f.clusters)
		if prep == nil {
			first = f
		}
		r.op(f == first, "prepare %d: output differs from prepare 0", i)
		walls = append(walls, wall.Seconds())
		prep = p
	}
	if prep == nil {
		return fmt.Errorf("no prepare completed: %v", r.problems)
	}
	enhanced, low := trainedPSNR(prep)
	r.set("throughput", float64(first.frames)/walls.median())
	r.setMedian("latency_ms", walls, 1e3)
	r.set("wire_bytes", float64(first.videoBytes+first.modelBytes))
	r.set("model_bytes", float64(first.modelBytes))
	r.setMedian("alloc_mb", alloc, 1)
	r.set("quality.psnr_ratio", enhanced/low)
	r.setFacts(first)
	if r.cfg.trace {
		return r.prepareProbes(c, prep, walls.median())
	}
	return nil
}
