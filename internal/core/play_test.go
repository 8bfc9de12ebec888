package core

import (
	"context"

	"dcsr/internal/codec"
	"dcsr/internal/stream"
	"dcsr/internal/video"
)

// playback is one local playback as the tests read it: the displayed
// frames, the finished session (its accounting reads through) and the
// decoder's statistics.
type playback struct {
	Frames []*video.YUV
	*stream.Session
	Decode codec.DecodeStats
}

// playOver plays p's manifest through the engine over f with opts:
// stream.Open, then Session.Play.
func playOver(p *Prepared, f stream.Fetcher, opts stream.Options) (*playback, error) {
	sess, err := stream.Open(p.Manifest, p.MicroConfig, f, opts)
	if err != nil {
		return nil, err
	}
	frames, dec, err := sess.Play(context.Background())
	if err != nil {
		return nil, err
	}
	return &playback{Frames: frames, Session: sess, Decode: dec}, nil
}

// playDefault plays p over itself with stream.DefaultOptions.
func playDefault(p *Prepared) (*playback, error) { return playOver(p, p, stream.DefaultOptions()) }
