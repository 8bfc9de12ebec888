package edsr

import "dcsr/internal/tensor"

// Workspace is the working set of inference passes: one lane of row
// rings per stripe the frame is split into (one per worker, see
// pipeline.go) — every feed's float32 ring and, on the int8 path, its
// int8 map, a few rows deep and one row of the feed's width each — the
// RGB rows the RGB and YUV entry points convert through, each
// convolution's kernels prepared for the running pass, and the output
// tensor ForwardInference and ForwardInferenceInt8 return. So what a
// pass holds is O(width), not O(width × height), but for that tensor,
// which only the tensor entry points grow. Activations belong to the
// pass, not to the layers or the model, so models that run one after
// another share a Workspace and a new model costs its weights only: a
// playback session owns one for all its cluster models, a Prepare gate
// checks one out per running job.
//
// A Workspace fits any configuration and frame size; its buffers grow to
// the largest shape seen and are never cleared (every pass writes each
// ring row before it reads it). It must not be reachable from two
// goroutines at once, and a tensor an inference pass returns is valid
// only until the next pass of any model sharing the workspace. The zero
// value is ready to use.
type Workspace struct {
	lanes  []lane
	stages []stage
	feeds  []feed
	kf     []tensor.ConvRows     // float32 passes
	kq     []tensor.Int8ConvRows // int8 passes
	inv    []float32             // int8 passes: each stage's input multiplier
	out    tensor.Tensor         // ForwardInference's output
}

// SetWorkspace makes the model run its inference passes in ws, which the
// caller owns and may share between models that never run concurrently.
// nil detaches: the model gets a private workspace, lazily, if it runs
// another pass — what a model used on its own has always done.
func (m *Model) SetWorkspace(ws *Workspace) { m.ws = ws }

func (m *Model) workspace() *Workspace {
	if m.ws == nil {
		m.ws = new(Workspace)
	}
	return m.ws
}
