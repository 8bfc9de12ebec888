package main

// The traced run: per-layer metrics from spans around the adapter calls
// of a bench-driven session, plus standalone timed calls on the
// workload's own payloads and shapes.

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// playTraced replaces the timed loop of a viewer workload when tracing:
// one untraced PlayCtx session as the reference, then traced walks for
// the rest of the window, then the standalone probes.
func (r *run) playTraced(ctx context.Context, s *stream, bps float64, int8Delta bool, plainPSNR float64) error {
	window := time.Now()
	runtime.GC() // as the untraced loop does before every operation
	t := time.Now()
	frames, st, err := playSession(ctx, s.o.addr, bps)
	playWall := time.Since(t)
	if !r.op(err == nil, "session: %v", err) {
		return fmt.Errorf("reference session: %w", err)
	}
	r.checkSession("session", s.facts, st, int8Delta)
	digest := digestFrames(frames)
	r.set("modelstore.cache_hit_share", float64(st.cacheHits)/float64(st.cacheHits+st.modelDownloads))
	r.set("modelstore.cache_bytes", float64(st.cacheBytes))
	psnr := meanPSNR(s.clip.frames, frames)
	r.set("play.psnr_db", psnr)
	r.set("quality.psnr_ratio", psnr/plainPSNR)
	r.set("play.video_bytes", float64(st.videoBytes))
	r.set("play.delta_model_bytes", float64(st.deltaBytes))
	r.set("edsr.iframes_enhanced", float64(st.enhanced))
	r.set("edsr.iframes_int8", float64(st.enhancedInt8))

	var w walkResult
	session := 0
	for ; r.inWindow(window, session, 1); session++ {
		runtime.GC()
		w, err = r.walk(ctx, r.tr, session, s.o.addr, bps, false)
		if !r.op(err == nil, "walk %d: %v", session, err) {
			return fmt.Errorf("walk %d: %w", session, err)
		}
		r.op(digestFrames(w.frames) == digest, "walk %d: frames differ from PlayCtx", session)
		r.op(w.enhanced == st.enhanced && w.int8 == st.enhancedInt8,
			"walk %d: %d enhancements (%d int8), PlayCtx made %d (%d)", session, w.enhanced, w.int8, st.enhanced, st.enhancedInt8)
	}
	r.walkMetrics(session-1, w, playWall)

	if err := r.probeEnhance(s.prep, int8Delta); err != nil {
		return err
	}
	r.probeKernels(!int8Delta, int8Delta, false)
	return r.probeWeights(s.prep)
}

// walkMetrics turns the last walk's spans into the transport, codec and
// edsr metrics. Self time is a span minus its children; the walk's own
// self time is what no layer accounts for.
func (r *run) walkMetrics(session int, w walkResult, playWall time.Duration) {
	self := r.tr.selfTimes(session)
	wall := ms(r.tr.duration(w.root))
	fetch := self["transport.dial_manifest"].sum() + self["transport.segment_fetch"].sum() + self["transport.model_fetch"].sum()
	r.set("transport.fetch_ms", fetch)
	r.setMedian("transport.segment_fetch_p50_ms", self["transport.segment_fetch"], 1)
	r.set("transport.model_fetch_ms", self["transport.model_fetch"].sum())
	r.set("transport.requests", float64(w.requests))
	r.set("transport.bytes_down", float64(w.bytesDown))
	r.set("transport.retries", float64(w.faults))
	r.op(w.faults == 0, "walk: %d retries/timeouts/reconnects/sheds", w.faults)
	r.set("codec.unmarshal_ms_per_segment", self["codec.unmarshal"].sum()/float64(len(self["codec.unmarshal"])))
	r.set("codec.decode_self_ms_per_frame", self["codec.decode"].sum()/float64(len(w.frames)))
	r.set("codec.decode_share", self["codec.decode"].sum()/wall)
	r.setMedian("edsr.enhance_p50_ms", self["edsr.enhance"], 1)
	r.set("edsr.enhance_n", float64(len(self["edsr.enhance"])))
	r.set("edsr.enhance_share", self["edsr.enhance"].sum()/wall)
	accounted := 1 - self["walk"].sum()/wall
	r.set("walk.accounted_share", accounted)
	r.op(accounted >= 0.95, "walk: layers account for %.3f of the wall time, want 0.95", accounted)
	r.set("walk.vs_play_ratio", w.wall.Seconds()/playWall.Seconds())
}

// probeEnhance splits one I-frame enhancement on the workload's
// precision: forward pass, tensor conversion, colour conversion,
// allocations, and the same call with the kernel pool on every core.
func (r *run) probeEnhance(prep *prepared, int8 bool) error {
	e, err := newEnhanceProbe(prep, int8)
	if err != nil {
		return err
	}
	e.enhanceYUV() // grow the model's buffers once
	forward := timeOnce(e.forward)
	enhance := timeOnce(e.enhance)
	enhanceYUV := timeOnce(e.enhanceYUV)
	r.set("edsr.forward_ms", forward)
	r.set("edsr.tensorize_ms", timeN(r.prof.lightReps, e.tensorize).min())
	r.set("edsr.colorconv_ms", enhanceYUV-enhance)
	r.set("edsr.enhance_gflops", e.gflop()/(forward/1e3))
	r.set("device.profile_gflops", profileGFLOPs())
	r.set("tensor.pool_workers", float64(poolWorkers()))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.enhance()
	runtime.ReadMemStats(&after)
	r.set("edsr.allocs_per_enhance", float64(after.Mallocs-before.Mallocs))

	withProcs(runtime.NumCPU(), func() {
		e.enhance()
		r.set("edsr.enhance_nproc_ms", timeOnce(e.enhance))
	})
	return nil
}

// probeKernels times the body convolution at frame size on the
// precision the workload runs, and the training pair at patch size.
func (r *run) probeKernels(f32, int8, train bool) {
	k := newKernelProbe(r.prof)
	n := r.prof.lightReps
	if f32 {
		k.convF32()
		d := timeN(n, k.convF32).median()
		r.set("tensor.conv_f32_body_ms", d)
		r.set("tensor.conv_f32_body_gflops", k.bodyGFLOP()/(d/1e3))
		r.set("tensor.matmul_body_gflops", k.bodyGFLOP()/(timeN(n, k.matmul).median()/1e3))
	}
	if int8 {
		k.convInt8()
		d := timeN(n, k.convInt8).median()
		r.set("tensor.conv_int8_body_ms", d)
		r.set("tensor.conv_int8_body_gops", k.bodyGFLOP()/(d/1e3))
	}
	if train {
		var fwd, bwd sample
		for i := 0; i < 10*n; i++ {
			t := time.Now()
			cols := k.convTrainFwd()
			mid := time.Now()
			k.convTrainBwd(cols)
			fwd, bwd = append(fwd, ms(mid.Sub(t))), append(bwd, ms(time.Since(mid)))
		}
		r.set("tensor.conv_train_fwd_ms", fwd.median())
		r.set("tensor.conv_train_bwd_ms", bwd.median())
	}
	r.set("tensor.pool_workers", float64(poolWorkers()))
}

// probeWeights times the nn weight formats on the stream's own models:
// what a client pays per model fetch, and the publisher per model.
func (r *run) probeWeights(prep *prepared) error {
	w, err := newWeightProbe(prep)
	if err != nil {
		return err
	}
	n := r.prof.lightReps
	load, err := timeErrN(n, w.loadWeights)
	if err != nil {
		return err
	}
	r.set("nn.load_weights_ms", load.median())
	r.set("nn.encode_weights_ms", timeN(n, w.encodeWeights).median())
	if !w.hasDelta() {
		return nil
	}
	enc, err := timeErrN(n, w.encodeDelta)
	if err != nil {
		return err
	}
	apply, err := timeErrN(n, w.applyDelta)
	if err != nil {
		return err
	}
	r.set("nn.delta_encode_ms", enc.median())
	r.set("nn.delta_apply_ms", apply.median())
	return nil
}

// originProbes times the origin's payload handling outside the server:
// what the serve path and the client's parse cost per request.
func (r *run) originProbes(s *stream) error {
	w, err := newWireProbe(s.prep)
	if err != nil {
		return err
	}
	n := 10 * r.prof.lightReps
	enc, err := timeErrN(n, w.encodeManifest)
	if err != nil {
		return err
	}
	dec, err := timeErrN(n, w.decodeManifest)
	if err != nil {
		return err
	}
	r.set("transport.manifest_encode_us", enc.median()*1e3)
	r.set("transport.manifest_decode_us", dec.median()*1e3)
	var payload []byte
	seg, err := timeErrN(n, func() (err error) {
		payload, err = w.segmentPayload(0)
		return err
	})
	if err != nil {
		return err
	}
	r.set("core.segment_stream_us", seg.median()*1e3)
	unm, err := timeErrN(n, func() error {
		_, err := unmarshalSegment(payload)
		return err
	})
	if err != nil {
		return err
	}
	r.set("codec.unmarshal_ms_per_segment", unm.median())
	return r.probeWeights(s.prep)
}

// stage runs one publisher stage inside a span and returns its wall
// time in ms.
func (r *run) stage(name string, fn func() error) (float64, error) {
	id := r.tr.start(name, -1, -1)
	t := time.Now()
	err := fn()
	d := ms(time.Since(t))
	r.tr.end(id)
	return d, err
}

// prepareProbes replays the publisher's stages one public call at a
// time and weights them by how often one Prepare runs each;
// core.accounted_share is their sum over the measured prepare time.
func (r *run) prepareProbes(c *clip, prep *prepared, prepareS float64) error {
	sp := &stageProbe{c: c, p: prep, seed: r.cfg.seed}
	f := factsOf(prep)
	e, err := newEnhanceProbe(prep, true)
	if err != nil {
		return err
	}
	const steps = 40
	if err := sp.train(steps / 4); err != nil { // first steps pay for the buffers
		return err
	}
	var low *segment
	var vm *vaeModel
	stages := []struct {
		name string
		fn   func() error
	}{
		{"splitter.split", func() error { sp.split(); return nil }},
		{"codec.encode", func() (err error) { low, err = sp.encode(); return err }},
		{"codec.decode", func() error { return sp.decode(low) }},
		{"vae.train", func() (err error) { vm, err = sp.vaeTrain(); return err }},
		{"vae.features", func() error { sp.vaeFeatures(vm); return nil }},
		{"cluster.select_k", sp.selectK},
		{"edsr.train", func() error { return sp.train(steps) }},
		{"edsr.calibrate", e.calibrate},
		{"edsr.enhance_int8", func() error { e.enhance(); return nil }},
		{"edsr.enhance_f32", func() error { e.int8 = false; e.enhance(); return nil }},
	}
	d := map[string]float64{}
	for _, st := range stages {
		if d[st.name], err = r.stage(st.name, st.fn); err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
	}
	r.set("splitter.split_ms", d["splitter.split"])
	r.set("codec.encode_ms_per_frame", d["codec.encode"]/float64(f.frames))
	r.set("codec.decode_self_ms_per_frame", d["codec.decode"]/float64(f.frames))
	r.set("vae.train_ms", d["vae.train"])
	r.set("vae.features_ms_per_frame", d["vae.features"]/float64(sp.iFrames()))
	r.set("cluster.select_k_ms", d["cluster.select_k"])
	r.set("edsr.train_ms_per_step", d["edsr.train"]/steps)
	r.set("edsr.calibrate_ms_per_frame", d["edsr.calibrate"])
	r.probeKernels(false, false, true)
	if err := r.probeWeights(prep); err != nil {
		return err
	}

	// One Prepare runs the codec over the clip, trains every cluster for
	// prepareSteps, and puts gateFrames frames per cluster through
	// the delta gate (two float32 enhancements, backbone excepted) and
	// the int8 gate (calibration plus one enhancement per precision).
	k := float64(f.clusters)
	accounted := d["splitter.split"] + d["codec.encode"] + d["codec.decode"] +
		d["vae.train"] + d["vae.features"] + d["cluster.select_k"] +
		k*float64(r.prof.prepareSteps)*d["edsr.train"]/steps + k*r.values["nn.encode_weights_ms"] +
		(k-1)*(r.values["nn.delta_encode_ms"]+r.values["nn.delta_apply_ms"]+gateFrames*2*d["edsr.enhance_f32"]) +
		k*gateFrames*(d["edsr.calibrate"]+d["edsr.enhance_f32"]+d["edsr.enhance_int8"])
	r.set("core.accounted_share", accounted/1e3/prepareS)
	return nil
}
