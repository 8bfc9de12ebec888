package experiments

import (
	"fmt"

	"dcsr/internal/core"
	"dcsr/internal/stream"
	"dcsr/internal/video"
)

// ModelstreamRow is one point of the clusters-touched sweep: a session
// that plays only the segments of the first k distinct clusters, with the
// models shipped as a model stream (backbone + deltas) versus complete.
type ModelstreamRow struct {
	// Clusters is k, the number of distinct cluster models the session
	// touches.
	Clusters int `json:"clusters"`
	// StreamBytes is the model download volume with the model stream:
	// BackboneBytes (paid once) + DeltaBytes + FullBytes (gate fallbacks).
	StreamBytes   int `json:"stream_bytes"`
	BackboneBytes int `json:"backbone_bytes"`
	DeltaBytes    int `json:"delta_bytes"`
	FullBytes     int `json:"full_bytes"`
	// ControlBytes is the same session with every model shipped complete
	// (the pre-model-stream wire).
	ControlBytes int `json:"control_bytes"`
	// Savings is 1 − StreamBytes/ControlBytes.
	Savings float64 `json:"savings"`
}

// ModelstreamResult is the BENCH_modelstream.json payload.
type ModelstreamResult struct {
	// Models is the number of cluster models; DeltaModels of them ship as
	// dcW5 deltas against the backbone, Fallbacks failed a gate and ship
	// complete.
	Models        int `json:"models"`
	DeltaModels   int `json:"delta_models"`
	Fallbacks     int `json:"fallbacks"`
	BackboneLabel int `json:"backbone_label"`
	// Rows sweeps k = 1..Models clusters touched per session.
	Rows []ModelstreamRow `json:"rows"`
}

// sessionModelBytes walks the manifest restricted to segments of the
// first k distinct labels (in first-appearance order) and returns the
// finished session — its byte breakdown is the measurement.
func sessionModelBytes(p *core.Prepared, k int) (*stream.Session, error) {
	var order []int
	seen := map[int]bool{}
	for _, seg := range p.Manifest.Segments {
		if seg.ModelLabel >= 0 && !seen[seg.ModelLabel] {
			seen[seg.ModelLabel] = true
			order = append(order, seg.ModelLabel)
		}
	}
	if k > len(order) {
		k = len(order)
	}
	keep := map[int]bool{}
	for _, label := range order[:k] {
		keep[label] = true
	}
	man := &stream.Manifest{Models: p.Manifest.Models, Backbone: p.Manifest.Backbone}
	for _, seg := range p.Manifest.Segments {
		if seg.ModelLabel < 0 || keep[seg.ModelLabel] {
			man.Segments = append(man.Segments, seg)
		}
	}
	sess, err := stream.NewSession(man, true)
	if err != nil {
		return nil, err
	}
	sess.Fetcher = p // real payloads, so the accounting is of what a client downloads
	sess.Run()
	return sess, nil
}

// ExperimentModelstream prepares the news video with the delta_encode
// stage enabled and measures bytes-per-session as a function of how many
// clusters a session touches: a viewer who watches a slice of the video
// pays the backbone once plus one small delta per additional cluster,
// versus one full model per cluster on the pre-model-stream wire.
func ExperimentModelstream(cfg EvalConfig) (Table, *ModelstreamResult, error) {
	clip := cfg.clip(video.GenreNews)
	sc := cfg.serverConfig()
	sc.Delta = core.DeltaConfig{Enabled: true}
	prep, err := core.Prepare(clip.YUVFrames(), clip.FPS, sc)
	if err != nil {
		return Table{}, nil, err
	}
	control := prep.WithoutDelta()

	r := &ModelstreamResult{BackboneLabel: -1}
	for _, label := range prep.Manifest.ModelLabels() {
		sm := prep.Models[label]
		if sm == nil {
			continue
		}
		r.Models++
		switch {
		case sm.Delta == nil:
		case sm.Delta.DeltaOK:
			r.DeltaModels++
			r.BackboneLabel = sm.Delta.BackboneLabel
		default:
			r.Fallbacks++
		}
	}

	t := Table{
		Title:  "Model stream: model bytes per session vs clusters touched",
		Header: []string{"clusters", "stream bytes", "backbone", "deltas", "full", "full-model bytes", "saving"},
	}
	for k := 1; k <= r.Models; k++ {
		sess, err := sessionModelBytes(prep, k)
		if err != nil {
			return Table{}, nil, err
		}
		ctrl, err := sessionModelBytes(control, k)
		if err != nil {
			return Table{}, nil, err
		}
		row := ModelstreamRow{
			Clusters:      k,
			StreamBytes:   sess.ModelBytes,
			BackboneBytes: sess.BackboneBytes,
			DeltaBytes:    sess.DeltaModelBytes,
			FullBytes:     sess.FullModelBytes,
			ControlBytes:  ctrl.ModelBytes,
		}
		if row.ControlBytes > 0 {
			row.Savings = 1 - float64(row.StreamBytes)/float64(row.ControlBytes)
		}
		r.Rows = append(r.Rows, row)
		t.Add(fmt.Sprintf("%d", k), fmt.Sprintf("%d", row.StreamBytes),
			fmt.Sprintf("%d", row.BackboneBytes), fmt.Sprintf("%d", row.DeltaBytes),
			fmt.Sprintf("%d", row.FullBytes), fmt.Sprintf("%d", row.ControlBytes),
			fmt.Sprintf("%.0f%%", row.Savings*100))
	}
	return t, r, nil
}
