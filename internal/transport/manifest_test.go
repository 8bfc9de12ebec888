package transport

import (
	"context"
	"encoding/json"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dcsr/internal/core"
	"dcsr/internal/edsr"
	"dcsr/internal/stream"
)

func TestWireManifestRoundTrip(t *testing.T) {
	m := &stream.Manifest{
		Segments: []stream.SegmentInfo{
			{Index: 0, Start: 0, End: 10, Bytes: 1000, ModelLabel: 0},
			{Index: 1, Start: 10, End: 25, Bytes: 1500, ModelLabel: 1},
			{Index: 2, Start: 25, End: 30, Bytes: 400, ModelLabel: 0},
		},
		Models: map[int]stream.ModelInfo{
			0: {Label: 0, Bytes: 5000},
			1: {Label: 1, Bytes: 5100},
		},
	}
	micro := edsr.Config{Filters: 8, ResBlocks: 2, Scale: 1}
	data, err := EncodeWireManifest(30, micro, m)
	if err != nil {
		t.Fatal(err)
	}
	wm, err := DecodeWireManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if wm.FPS != 30 || wm.MicroConfig != micro {
		t.Fatalf("header mismatch: %+v", wm)
	}
	back := wm.Manifest()
	if !reflect.DeepEqual(back.Segments, m.Segments) {
		t.Fatalf("segments differ:\n%v\n%v", back.Segments, m.Segments)
	}
	if !reflect.DeepEqual(back.Models, m.Models) {
		t.Fatalf("models differ:\n%v\n%v", back.Models, m.Models)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeWireManifestRejectsGarbage(t *testing.T) {
	if _, err := DecodeWireManifest([]byte("{nope")); err == nil {
		t.Fatal("garbage JSON accepted")
	}
}

// hostileManifests are manifests that decode but must be refused before
// anything is fetched: each mutates a real manifest and names what the
// refusal mentions.
var hostileManifests = []struct {
	name   string
	mutate func(*WireManifest)
	want   string
}{
	{"oversized config", func(wm *WireManifest) {
		wm.MicroConfig = edsr.Config{Filters: 1 << 20, ResBlocks: 1 << 20}
	}, "artifact bound"},
	{"config disagrees with declared sizes", func(wm *WireManifest) {
		wm.MicroConfig.ResBlocks += 3
	}, "serializes to"},
	{"segment references unknown model", func(wm *WireManifest) {
		wm.Segments[0].ModelLabel = 99
	}, "unknown model"},
	{"delta entry without backbone", func(wm *WireManifest) {
		wm.Models[0].Delta = true
	}, "no backbone"},
	{"backbone label without model entry", func(wm *WireManifest) {
		wm.Backbone = &stream.BackboneInfo{Label: 99}
	}, "no model entry"},
	{"backbone entry without digest", func(wm *WireManifest) {
		wm.Backbone = &stream.BackboneInfo{Label: wm.Models[0].Label}
		wm.Models[0].Digest = ""
	}, "missing digest"},
	{"complete delta entry, manifest without backbone", func(wm *WireManifest) {
		wm.Backbone = nil
		mi := &wm.Models[0]
		mi.Delta, mi.Digest, mi.FullBytes = true, strings.Repeat("0", 64), mi.Bytes
	}, "no backbone"},
}

// TestHostileManifestRejected pins the trust boundary at the engine's
// entry: a manifest that fails validation — or carries a model
// configuration that does not match the model sizes it declares — is an
// error from both PlayCtx and Client.ModelData before anything is
// fetched, built or (for the allocation-bomb configuration) allocated.
// None of them may panic or degrade silently.
func TestHostileManifestRejected(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	dial, conns := muxDialer(srv)
	mux, err := DialMux(dial)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		mux.Close()
		for _, c := range *conns {
			c.Close()
		}
	}()
	for _, tc := range hostileManifests {
		t.Run(tc.name, func(t *testing.T) {
			wm, err := DecodeWireManifest(srv.videos[0].manifest)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(wm)
			hostile, err := json.Marshal(wm)
			if err != nil {
				t.Fatal(err)
			}
			cconn, sconn := net.Pipe()
			defer cconn.Close()
			defer sconn.Close()
			// A server that answers every request with the hostile manifest.
			go func() {
				for {
					req, err := readRequest(sconn)
					if err != nil || writeResponse(sconn, req.ID, StatusOK, hostile) != nil {
						return
					}
				}
			}()

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			client := NewClient(cconn)
			_, stats, err := client.PlayCtx(context.Background(), true)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("PlayCtx = %+v, %v; want an error mentioning %q", stats, err, tc.want)
			}
			if client.BytesUp != reqFrameBytes {
				t.Errorf("PlayCtx sent %d bytes; want the manifest request only", client.BytesUp)
			}
			sent := mux.Stats().BytesUp
			if _, _, err := mux.ModelData(context.Background(), 0, wm, 0, wm.MicroConfig); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ModelData = %v; want an error mentioning %q", err, tc.want)
			}
			if got := mux.Stats().BytesUp; got != sent {
				t.Errorf("ModelData sent %d bytes before rejecting the manifest", got-sent)
			}
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
				t.Errorf("rejecting the manifest allocated %d bytes", grew)
			}
		})
	}
}

// manifestSeeds are the real manifests of the plain fixture and (outside
// -short) the delta fixture, a few truncations of each, and each real
// manifest under every hostileManifests mutation.
func manifestSeeds(tb testing.TB) [][]byte {
	prep, _ := getFixture(tb)
	preps := []*core.Prepared{prep}
	if !testing.Short() {
		preps = append(preps, getDeltaFixture(tb))
	}
	var seeds [][]byte
	for _, p := range preps {
		enc, err := EncodeWireManifest(p.FPS, p.MicroConfig, p.Manifest)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, enc, enc[:len(enc)-1], enc[:len(enc)/2], enc[:len(enc)/3])
		for _, h := range hostileManifests {
			wm, err := DecodeWireManifest(enc)
			if err != nil {
				tb.Fatal(err)
			}
			h.mutate(wm)
			hostile, err := json.Marshal(wm)
			if err != nil {
				tb.Fatal(err)
			}
			seeds = append(seeds, hostile)
		}
	}
	return seeds
}

// FuzzDecodeWireManifest: any payload either fails to decode, decodes to
// a manifest that fails ValidateFor its own model configuration, or
// decodes to one whose re-encoding decodes back equal — never a panic.
func FuzzDecodeWireManifest(f *testing.F) {
	for _, seed := range manifestSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wm, err := DecodeWireManifest(data)
		if err != nil {
			return
		}
		man := wm.Manifest()
		if man.ValidateFor(wm.MicroConfig) != nil {
			return
		}
		enc, err := EncodeWireManifest(wm.FPS, wm.MicroConfig, man)
		if err != nil {
			t.Fatalf("valid manifest does not re-encode: %v", err)
		}
		back, err := DecodeWireManifest(enc)
		if err != nil {
			t.Fatalf("re-encoded manifest does not decode: %v", err)
		}
		if back.FPS != wm.FPS || back.MicroConfig != wm.MicroConfig || !reflect.DeepEqual(back.Manifest(), man) {
			t.Fatalf("manifest changed across a round trip:\n%+v\n%+v", wm, back)
		}
	})
}

// FuzzDecodeWireDirectory: any payload either fails to decode or decodes
// to a directory whose re-encoding decodes back equal — never a panic.
func FuzzDecodeWireDirectory(f *testing.F) {
	dir, err := EncodeWireDirectory(&WireDirectory{Videos: []WireVideo{
		{ID: 0, Digest: "ab", FPS: 30, Segments: 3, Models: 2, VideoBytes: 1000, ModelBytes: 500},
		{ID: 1, Digest: "cd", FPS: 25, Segments: 1, Models: 1, VideoBytes: 10, ModelBytes: 20},
	}})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{dir, dir[:len(dir)/2], []byte(`{"videos":[]}`), []byte(`{}`), []byte(`{"videos":null}`)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeWireDirectory(data)
		if err != nil {
			return
		}
		enc, err := EncodeWireDirectory(d)
		if err != nil {
			t.Fatalf("decoded directory does not re-encode: %v", err)
		}
		back, err := DecodeWireDirectory(enc)
		if err != nil || !reflect.DeepEqual(back, d) {
			t.Fatalf("directory changed across a round trip: %+v, %v\nwas %+v", back, err, d)
		}
	})
}
