package core

import (
	"context"
	"sync"

	"dcsr/internal/codec"
	"dcsr/internal/edsr"
	"dcsr/internal/obs"
	"dcsr/internal/video"
)

// prepState carries the pipeline's accumulating state between stages. It
// deliberately does not hold the context (stages receive it as their
// first parameter, per the ctxcheck lint rule).
type prepState struct {
	cfg    ServerConfig
	frames []*video.YUV
	fps    int
	p      *Prepared
	log    *obs.Logger
	ck     *artifact // nil unless cfg.CheckpointDir is set

	gateMu   sync.Mutex
	gateFree []*gate // idle gates; see checkoutGate
}

// gate is what one quality-gate job runs in: the inference workspace it
// attaches to the models it evaluates, and the decoder the judge plays
// through, which decodes each play into the frames of the play before.
type gate struct {
	ws  edsr.Workspace
	dec codec.Decoder
}

// checkoutGate hands a quality-gate job a gate no other goroutine holds —
// forEach runs several jobs at once, and two passes in one workspace
// would overwrite each other's activations, two plays in one decoder
// each other's pictures. The job detaches the workspace from every model
// and hands the gate back with returnGate on every exit path, so the next
// job (this stage's or the next's) reuses the grown buffers and the
// pictures, and no model stored in Prepared keeps a reference to them.
func (s *prepState) checkoutGate() *gate {
	s.gateMu.Lock()
	defer s.gateMu.Unlock()
	if n := len(s.gateFree); n > 0 {
		g := s.gateFree[n-1]
		s.gateFree = s.gateFree[:n-1]
		return g
	}
	return new(gate)
}

func (s *prepState) returnGate(g *gate) {
	s.gateMu.Lock()
	s.gateFree = append(s.gateFree, g)
	s.gateMu.Unlock()
}

// prepStage is one named step of the server pipeline. The driver opens an
// obs span named after the stage around each run, so the span tree is the
// stage list (paper Fig 2 left-to-right).
type prepStage struct {
	name string
	// skip, when non-nil and true, omits the stage (and its span) entirely.
	skip func(s *prepState) bool
	run  func(ctx context.Context, sp *obs.Span, s *prepState) error
}

// runStages executes stages in order, checking ctx between stages so a
// cancelled pipeline stops at the next stage boundary (finer-grained
// cancellation inside long stages is the stage's own job, e.g. the train
// stage checks between and within per-cluster jobs).
func runStages(ctx context.Context, root *obs.Span, s *prepState, stages []prepStage) error {
	for _, st := range stages {
		if err := ctx.Err(); err != nil {
			return err
		}
		if st.skip != nil && st.skip(s) {
			continue
		}
		sp := root.Child(st.name)
		err := st.run(ctx, sp, s)
		sp.End()
		if err != nil {
			return err
		}
	}
	return nil
}

// forEach runs fn(i) for every i in [0, n) on at most workers goroutines.
// It stops handing out new indices once ctx is cancelled, always joins
// every worker before returning, and returns ctx.Err() if cancelled, else
// the lowest-index error fn produced (deterministic regardless of
// completion order), else nil. It replaces the pipeline's former inline
// channel/WaitGroup plumbing.
func forEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	idx := make(chan int)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
