package edsr

import "dcsr/internal/tensor"

// Workspace is the working set of one inference pass: the head's output
// (kept for the global skip), three feature maps the body rotates
// through — a float32 residual block reads one, writes its first
// convolution into the second and its second convolution plus the
// in-place residual add into the third; an int8 block needs only two,
// its first convolution's output staying in the int8 map — the input,
// output and nearest-neighbour tensors, and the int8 activation map
// every quantized convolution reads (tensor.Int8Map): one byte per
// channel and pixel of the widest convolution input plus its padding
// ring, where the int8 input buffer it replaced held the bytes alone.
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
	maps [3]tensor.Tensor
	in   tensor.Tensor
	out  tensor.Tensor
	near tensor.Tensor // Scale > 1 only
	am   tensor.Int8Map
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
