package edsr

import "dcsr/internal/tensor"

// Workspace is the working set of one inference pass: the head's output
// (kept for the global skip), three feature maps the body rotates
// through — a residual block reads one, writes its first convolution
// into the second and its second convolution plus the in-place residual
// add into the third — the input, output and nearest-neighbour tensors,
// and the one int8 buffer every quantized convolution stages its input
// in. Activations belong to the pass, not to the layers or the model, so
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
	qin  []int8
}

// int8Input returns the shared quantized-input buffer, at least n long.
func (ws *Workspace) int8Input(n int) []int8 {
	if cap(ws.qin) < n {
		ws.qin = make([]int8, n)
	}
	return ws.qin[:cap(ws.qin)]
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
