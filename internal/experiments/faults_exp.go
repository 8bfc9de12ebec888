package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"dcsr/internal/core"
	"dcsr/internal/faultnet"
	"dcsr/internal/quality"
	"dcsr/internal/transport"
	"dcsr/internal/video"
)

// FaultCell is the outcome of streaming one playback session under one
// (drop scope, drop rate, retry budget) combination.
type FaultCell struct {
	// Scope is "all" (every response may drop) or "model" (only
	// micro-model responses drop — a model-CDN outage while video
	// delivery stays healthy).
	Scope    string
	DropRate float64
	Retries  int

	// Completed reports whether playback finished. With no retry budget a
	// dropped segment or manifest response is fatal; model drops always
	// degrade instead.
	Completed bool
	// PSNR is the mean luma+chroma PSNR against the pristine source
	// (NaN-free only when Completed).
	PSNR float64
	// Degraded counts segments that played without SR.
	Degraded int
	// RetryCount, Reconnects and Stall are the client's fault-recovery
	// accounting for the whole session.
	RetryCount int
	Reconnects int
	Stall      time.Duration
	// Faults is how many responses the injector actually dropped.
	Faults int
}

// FaultsResult is the full sweep (drop rate × retry budget).
type FaultsResult struct {
	Cells []FaultCell
}

// Cell returns the sweep entry for (scope, drop, retries), or nil.
func (r *FaultsResult) Cell(scope string, drop float64, retries int) *FaultCell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Scope == scope && c.DropRate == drop && c.Retries == retries {
			return c
		}
	}
	return nil
}

// ExperimentFaults measures fault-tolerant streaming end to end: one
// prepared video is streamed through a fault-injecting connection while
// sweeping the response drop rate against the client's retry budget. It
// reports playback quality (PSNR vs the pristine source), how many
// segments degraded to unenhanced playback, and the recovery cost
// (retries, reconnects, backoff stall). Every cell uses a seeded injector
// and a seeded jitter PRNG, so the table is reproducible.
//
// The headline behaviour: with no retry budget any dropped response ends
// the session, while even a small budget converts drops into bounded
// stall plus (for model fetches that exhaust the budget) degraded
// segments — the graceful-degradation story of docs/OPERATIONS.md as a
// measured curve.
func ExperimentFaults(cfg EvalConfig) (Table, *FaultsResult, error) {
	genre := video.GenreNews
	if len(cfg.Genres) > 0 {
		genre = cfg.Genres[0]
	}
	clip := cfg.clip(genre)
	frames := clip.YUVFrames()
	prep, err := core.Prepare(frames, clip.FPS, cfg.serverConfig())
	if err != nil {
		return Table{}, nil, fmt.Errorf("experiments: faults prepare: %w", err)
	}
	srv, err := transport.NewServer(prep)
	if err != nil {
		return Table{}, nil, fmt.Errorf("experiments: faults server: %w", err)
	}

	retryBudgets := []int{0, 1, 3}
	res := &FaultsResult{}
	table := Table{
		Title:  "Fault-injected streaming: drop scope × rate × retry budget (genre " + genre.String() + ")",
		Header: []string{"scope", "drop", "retries", "completed", "PSNR(dB)", "degraded", "retried", "reconnects", "stall(ms)", "dropped"},
	}
	runCell := func(scope string, drop float64, budget int, fc faultnet.Config) {
		inj := faultnet.New(fc)
		var open []io.Closer
		dial := func() (io.ReadWriter, error) {
			cconn, sconn := net.Pipe()
			//lint:allow errcheck fault sweep: handler errors are the injected faults under test, counted by the injector, not failures to surface
			//lint:allow goleak the handler exits when runCell closes both pipe ends below; a WaitGroup per cell would serialize the sweep for no coverage gain
			go func() { _ = srv.ServeConn(sconn) }()
			open = append(open, cconn, sconn)
			return inj.Wrap(cconn), nil
		}
		conn, _ := dial()
		client := transport.NewClient(conn)
		client.Redial = dial
		client.Retry = transport.RetryPolicy{
			MaxRetries: budget,
			// Keep the sweep fast: microsecond-scale backoffs with the
			// same exponential shape as production settings.
			BaseDelay: 200 * time.Microsecond,
			MaxDelay:  2 * time.Millisecond,
			Seed:      cfg.Seed,
		}
		out, stats, err := client.PlayCtx(context.Background(), true)
		cell := FaultCell{Scope: scope, DropRate: drop, Retries: budget,
			RetryCount: client.Retries, Reconnects: client.Reconnects,
			Stall: client.StallTime, Faults: inj.Counts()["drop"]}
		if err == nil {
			cell.Completed = true
			cell.Degraded = stats.DegradedSegments
			var psnr float64
			for i := range out {
				psnr += quality.PSNRYUV(frames[i], out[i])
			}
			cell.PSNR = psnr / float64(len(out))
		}
		for _, c := range open {
			//lint:allow errcheck tearing down net.Pipe ends after the cell; double-close of an already-broken pipe is expected here
			c.Close()
		}
		res.Cells = append(res.Cells, cell)
		psnrCell := "-"
		completed := "aborted"
		if cell.Completed {
			psnrCell = f2(cell.PSNR)
			completed = "yes"
		}
		table.Add(scope, f2(drop), fmt.Sprint(budget), completed, psnrCell,
			fmt.Sprint(cell.Degraded), fmt.Sprint(cell.RetryCount),
			fmt.Sprint(cell.Reconnects), f2(float64(cell.Stall)/float64(time.Millisecond)),
			fmt.Sprint(cell.Faults))
	}

	// Scope "all": every response may drop (a flaky last-mile link). A
	// dropped segment or manifest response aborts the session once the
	// budget is exhausted, so this axis measures survival and stall.
	for di, drop := range []float64{0, 0.1, 0.25, 0.4} {
		for ri, budget := range retryBudgets {
			runCell("all", drop, budget, faultnet.Config{
				Seed:     cfg.Seed + int64(100*di+ri),
				DropRate: drop,
			})
		}
	}
	// Scope "model": only micro-model responses drop (the model CDN is
	// down while video delivery stays healthy). Exhausted budgets degrade
	// instead of aborting, so this axis measures the quality cost of
	// playing without SR — the degraded-segment curve.
	for di, drop := range []float64{0.5, 1} {
		for ri, budget := range retryBudgets {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(1000+100*di+ri)))
			mdrop := drop
			runCell("model", drop, budget, faultnet.Config{
				Decide: func(_ int, frame []byte) faultnet.Kind {
					if op, _, ok := transport.PeekRequest(frame); ok && op == transport.OpModel && rng.Float64() < mdrop {
						return faultnet.KindDrop
					}
					return faultnet.KindNone
				},
			})
		}
	}
	return table, res, nil
}
