package transport

import (
	"context"
	"encoding/json"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"

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

// TestHostileManifestRejected pins the trust boundary at the engine's
// entry: a manifest that fails validation — or carries a model
// configuration that does not match the model sizes it declares — is an
// error from both PlayCtx and MuxClient.ModelData before anything is
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
	for _, tc := range []struct {
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
	} {
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
