package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dcsr/internal/edsr"
)

// The Prepare tables pin, for two fixed-seed runs, everything
// comparePrepared checks: the FPS, the coded stream, the segments, the
// VAE features, the cluster assignment and K, the micro config, the
// training compute, each model's payload and train result, and the
// manifest; large values as SHA-256 digests. They were generated by the
// commit before the staged pipeline's last verbatim twin, the monolithic
// Prepare it replaced, was deleted, and equal that monolith's output.
// Never regenerate them to make a change pass.

// preparedRows renders p as the table's rows.
func preparedRows(t *testing.T, p *Prepared) []string {
	t.Helper()
	features := make([]byte, 0, 8*len(p.Features)*len(p.Features[0]))
	for _, f := range p.Features {
		for _, v := range f {
			features = binary.LittleEndian.AppendUint64(features, math.Float64bits(v))
		}
	}
	manifest, err := json.Marshal(p.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	rows := []string{
		fmt.Sprintf("fps=%d k=%d micro=%#v train_flops=%v", p.FPS, p.K, p.MicroConfig, p.TrainFLOPs),
		fmt.Sprintf("segments=%v", p.Segments),
		fmt.Sprintf("assign=%v", p.Assign),
		fmt.Sprintf("stream=%x", sha256.Sum256(p.Stream.Marshal())),
		fmt.Sprintf("features=%x", sha256.Sum256(features)),
	}
	labels := make([]int, 0, len(p.Models))
	for label := range p.Models {
		labels = append(labels, label)
	}
	sort.Ints(labels)
	for _, label := range labels {
		sm := p.Models[label]
		rows = append(rows, fmt.Sprintf("model%d bytes=%x train=%+v", label, sha256.Sum256(sm.Bytes), *sm.Train))
	}
	return append(rows, fmt.Sprintf("manifest=%x", sha256.Sum256(manifest)))
}

// checkPreparedGolden compares p's rows with the table in file.
func checkPreparedGolden(t *testing.T, p *Prepared, file string) {
	t.Helper()
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(preparedRows(t, p), "\n") + "\n"
	if got == string(want) {
		return
	}
	wantRows := strings.Split(string(want), "\n")
	for i, row := range strings.Split(got, "\n") {
		if i >= len(wantRows) {
			t.Errorf("row %d: got %q, want no such row", i, row)
		} else if row != wantRows[i] {
			t.Errorf("row %d: got %q, want %q", i, row, wantRows[i])
		}
	}
	t.Logf("computed table:\n%s", got)
}

// TestPrepareGoldenEquivalence pins the staged pipeline's output, bit
// for bit, to the table recorded from the monolithic one.
func TestPrepareGoldenEquivalence(t *testing.T) {
	clip := testClip(t, 3, 3, 8)
	p, err := Prepare(clip.YUVFrames(), clip.FPS, tinyServerConfig())
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	checkPreparedGolden(t, p, "testdata/prepare_golden.txt")
}

// TestPrepareGoldenEquivalenceWithSearch covers the min_model_search
// stage too (MicroConfig unset → Appendix A.1 grid search runs).
func TestPrepareGoldenEquivalenceWithSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("model search trains the big reference model")
	}
	clip := testClip(t, 5, 2, 4)
	cfg := tinyServerConfig()
	cfg.MicroConfig = edsr.Config{}
	cfg.MicroGrid = []edsr.Config{{Filters: 4, ResBlocks: 1}, {Filters: 8, ResBlocks: 2}}
	cfg.SearchTrain = edsr.TrainOptions{Steps: 20, BatchSize: 2, PatchSize: 16}
	p, err := Prepare(clip.YUVFrames(), clip.FPS, cfg)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	checkPreparedGolden(t, p, "testdata/prepare_search_golden.txt")
}

// comparePrepared asserts got reproduces want bit for bit.
func comparePrepared(t *testing.T, got, want *Prepared) {
	t.Helper()
	if got.FPS != want.FPS {
		t.Errorf("FPS %d != %d", got.FPS, want.FPS)
	}
	if !reflect.DeepEqual(got.Stream.Marshal(), want.Stream.Marshal()) {
		t.Error("coded streams differ")
	}
	if !reflect.DeepEqual(got.Segments, want.Segments) {
		t.Errorf("segments differ: %v vs %v", got.Segments, want.Segments)
	}
	if !reflect.DeepEqual(got.Features, want.Features) {
		t.Error("VAE features differ")
	}
	if !reflect.DeepEqual(got.Assign, want.Assign) {
		t.Errorf("cluster assignment differs: %v vs %v", got.Assign, want.Assign)
	}
	if got.K != want.K {
		t.Errorf("K %d != %d", got.K, want.K)
	}
	if got.MicroConfig != want.MicroConfig {
		t.Errorf("micro config %+v != %+v", got.MicroConfig, want.MicroConfig)
	}
	if got.TrainFLOPs != want.TrainFLOPs {
		t.Errorf("TrainFLOPs %v != %v", got.TrainFLOPs, want.TrainFLOPs)
	}
	if len(got.Models) != len(want.Models) {
		t.Fatalf("model count %d != %d", len(got.Models), len(want.Models))
	}
	for label, wsm := range want.Models {
		gsm, ok := got.Models[label]
		if !ok {
			t.Errorf("model %d missing", label)
			continue
		}
		if !reflect.DeepEqual(gsm.Bytes, wsm.Bytes) {
			t.Errorf("model %d weights differ", label)
		}
		if !reflect.DeepEqual(gsm.Train, wsm.Train) {
			t.Errorf("model %d train result %+v != %+v", label, gsm.Train, wsm.Train)
		}
	}
	if !reflect.DeepEqual(got.Manifest, want.Manifest) {
		t.Errorf("manifests differ: %+v vs %+v", got.Manifest, want.Manifest)
	}
}
