package transport

import (
	"context"
	"net"
	"testing"

	"dcsr/internal/core"
	"dcsr/internal/edsr"
	"dcsr/internal/splitter"
	"dcsr/internal/stream"
	"dcsr/internal/vae"
	"dcsr/internal/video"
)

// fixture2 is a second, content-distinct prepared stream for multi-video
// tests, built once per test binary like getFixture's.
var fixture2 struct {
	prep   *core.Prepared
	frames []*video.YUV
}

func getFixture2(t testing.TB) (*core.Prepared, []*video.YUV) {
	t.Helper()
	if fixture2.prep == nil {
		clip := video.Generate(video.GenConfig{
			W: 64, H: 48, Seed: 31, NumScenes: 2, TotalCues: 4, MinFrames: 5, MaxFrames: 7,
		})
		frames := clip.YUVFrames()
		prep, err := core.Prepare(frames, clip.FPS, core.ServerConfig{
			QP:          51,
			Split:       splitter.Config{Threshold: 14, MinLen: 3},
			VAE:         vae.Config{ImgSize: 16, LatentDim: 4, BaseCh: 4},
			VAETrain:    vae.TrainOptions{Epochs: 8, BatchSize: 4},
			MicroConfig: edsr.Config{Filters: 4, ResBlocks: 1},
			Train:       edsr.TrainOptions{Steps: 40, BatchSize: 2, PatchSize: 16},
			Seed:        2,
		})
		if err != nil {
			t.Fatal(err)
		}
		fixture2.prep = prep
		fixture2.frames = frames
	}
	return fixture2.prep, fixture2.frames
}

// TestMultiVideoRegisterAndRoute pins the tentpole: one server hosts two
// content-distinct videos, clients list them, select one by digest, and
// play it end to end — all over one connection.
func TestMultiVideoRegisterAndRoute(t *testing.T) {
	prep1, frames1 := getFixture(t)
	prep2, frames2 := getFixture2(t)
	srv := NewFleetServer()
	d1, err := srv.Register(prep1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := srv.Register(prep2)
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 {
		t.Fatal("content-distinct videos produced the same digest")
	}
	if _, err := srv.Register(prep1); err == nil {
		t.Fatal("re-registering the same content succeeded")
	}
	vids := srv.Videos()
	if len(vids) != 2 || vids[0].Digest != d1 || vids[1].Digest != d2 {
		t.Fatalf("Videos() = %+v, want [%s %s]", vids, d1, d2)
	}
	if vids[1].Segments != len(prep2.Manifest.Segments) {
		t.Errorf("directory entry reports %d segments, want %d", vids[1].Segments, len(prep2.Manifest.Segments))
	}

	cconn, sconn := net.Pipe()
	go func() { _ = srv.ServeConn(sconn) }()
	defer cconn.Close()
	defer sconn.Close()
	client := NewClient(cconn)

	// Before selection the client plays the default video.
	wm, err := client.ManifestCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(wm.Segments) != len(prep1.Manifest.Segments) {
		t.Fatalf("default manifest has %d segments, want video 0's %d",
			len(wm.Segments), len(prep1.Manifest.Segments))
	}
	out, _, err := client.PlayCtx(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(frames1) {
		t.Fatalf("default video played %d frames, want %d", len(out), len(frames1))
	}

	// Select the second video by digest and replay: same connection, new
	// content.
	if err := client.SelectVideoCtx(context.Background(), d2); err != nil {
		t.Fatal(err)
	}
	out, stats, err := client.PlayCtx(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(frames2) {
		t.Fatalf("selected video played %d frames, want %d", len(out), len(frames2))
	}
	if stats.ModelDownloads == 0 {
		t.Error("selected video fetched no models")
	}
	// A fresh connection can select a non-default video as its very first
	// request: no manifest fetch has to come before it.
	cconn2, sconn2 := net.Pipe()
	go func() { _ = srv.ServeConn(sconn2) }()
	defer cconn2.Close()
	defer sconn2.Close()
	fresh := NewClient(cconn2)
	if err := fresh.SelectVideoCtx(context.Background(), d2); err != nil {
		t.Fatalf("selecting a non-default video first: %v", err)
	}
	if wm, err = fresh.ManifestCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fresh.Video != 1 || len(wm.Segments) != len(prep2.Manifest.Segments) {
		t.Errorf("fresh client routed at video %d with %d segments, want video 1 with %d",
			fresh.Video, len(wm.Segments), len(prep2.Manifest.Segments))
	}

	// Selecting back to the default works too.
	if err := client.SelectVideoCtx(context.Background(), d1); err != nil {
		t.Fatal(err)
	}
	if wm, err = client.ManifestCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(wm.Segments) != len(prep1.Manifest.Segments) {
		t.Errorf("reselected default manifest has %d segments, want %d",
			len(wm.Segments), len(prep1.Manifest.Segments))
	}
}

// TestSelectVideoErrors pins the failure modes of digest selection.
func TestSelectVideoErrors(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	cconn, sconn := net.Pipe()
	go func() { _ = srv.ServeConn(sconn) }()
	defer cconn.Close()
	defer sconn.Close()
	client := NewClient(cconn)
	if err := client.SelectVideoCtx(context.Background(), "no-such-digest"); err == nil {
		t.Fatal("selecting an unhosted digest succeeded")
	}
	if client.Video != 0 {
		t.Errorf("failed selection moved Video to %d", client.Video)
	}
}

// TestMuxRoutesNonDefaultVideo drives the second video through the
// pipelined client: the frame's video field routes each request.
func TestMuxRoutesNonDefaultVideo(t *testing.T) {
	prep1, _ := getFixture(t)
	prep2, _ := getFixture2(t)
	srv := NewFleetServer()
	if _, err := srv.Register(prep1); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Register(prep2); err != nil {
		t.Fatal(err)
	}
	dial, _ := muxDialer(srv)
	mux, err := DialMux(dial)
	if err != nil {
		t.Fatal(err)
	}
	for vid := uint32(0); vid < 2; vid++ {
		payload, err := mux.Do(context.Background(), OpManifest, 0, vid)
		if err != nil {
			t.Fatalf("video %d manifest: %v", vid, err)
		}
		wm, err := DecodeWireManifest(payload)
		if err != nil {
			t.Fatal(err)
		}
		want := len(srv.videos[vid].segments)
		if len(wm.Segments) != want {
			t.Errorf("video %d manifest has %d segments, want %d", vid, len(wm.Segments), want)
		}
	}
	// An out-of-range video ID is a typed NotFound, not a hang or a crash.
	if _, err := mux.Do(context.Background(), OpManifest, 0, 99); !IsNotFound(err) {
		t.Fatalf("out-of-range video: want NotFound, got %v", err)
	}
}

// TestRegisterRejectsCorruptManifest pins the registration-side guard
// against the silent-shadowing bug class: a manifest with duplicate
// segment indices is refused before any bytes are hosted.
func TestRegisterRejectsCorruptManifest(t *testing.T) {
	prep, _ := getFixture(t)
	bad := *prep
	man := *prep.Manifest // deep-copy: the fixture's manifest must stay pristine
	man.Segments = append([]stream.SegmentInfo(nil), prep.Manifest.Segments...)
	man.Segments[len(man.Segments)-1].Index = man.Segments[0].Index
	bad.Manifest = &man
	srv := NewFleetServer()
	if _, err := srv.Register(&bad); err == nil {
		t.Fatal("duplicate segment index registered")
	}
	if len(srv.Videos()) != 0 {
		t.Fatal("rejected registration left a hosted video behind")
	}
}

// TestFleetServerEmpty pins the degenerate case: a fleet server with no
// videos answers data ops NotFound but still serves an empty directory.
func TestFleetServerEmpty(t *testing.T) {
	srv := NewFleetServer()
	cconn, sconn := net.Pipe()
	go func() { _ = srv.ServeConn(sconn) }()
	defer cconn.Close()
	defer sconn.Close()
	client := NewClient(cconn)
	if _, err := client.ManifestCtx(context.Background()); !IsNotFound(err) {
		t.Fatalf("manifest on an empty server: want NotFound, got %v", err)
	}
	dir, err := client.VideosCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(dir.Videos) != 0 {
		t.Fatalf("empty server lists %d videos", len(dir.Videos))
	}
}
