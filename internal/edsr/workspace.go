package edsr

import (
	"dcsr/internal/tensor"
	"dcsr/internal/video"
)

// Workspace is the working set of one inference pass: the head's output
// (kept for the global skip, which the body convolution adds into in
// place), two feature maps — a residual block writes its output into
// maps[1], over its own input after the first block, and a float32
// block its first convolution into maps[0], where an int8 block keeps
// that activation in the int8 map, so an int8-only pass never grows
// maps[0] at Scale 1 — the input, output and nearest-neighbour tensors,
// the int8 activation map every quantized convolution reads
// (tensor.Int8Map): one byte per channel and pixel of the widest
// convolution input plus its padding ring — and the RGB images
// EnhanceYUV and EnhanceYUVInt8 convert through.
// Activations belong to the pass, not to the layers or the model, so
// models that run one after another share a Workspace and a new model
// costs its weights only: a playback session owns one for all its
// cluster models, a Prepare gate checks one out per running job.
//
// A Workspace fits any configuration and frame size; its buffers grow to
// the largest shape seen and are never cleared (every pass overwrites
// what it reads). It must not be reachable from two goroutines at once,
// and a tensor an inference pass returns is valid only until the next
// pass of any model sharing the workspace. The zero value is ready to
// use.
type Workspace struct {
	skip tensor.Tensor
	maps [2]tensor.Tensor
	in   tensor.Tensor
	out  tensor.Tensor
	near tensor.Tensor // Scale > 1 only
	am   tensor.Int8Map

	rgbIn, rgbOut video.RGB // EnhanceYUV* only
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
