package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"dcsr/internal/edsr"
	"dcsr/internal/nn"
	"dcsr/internal/obs"
	"dcsr/internal/splitter"
)

// gatedConfig is tinyServerConfig with both gates on and permissive, so a
// three-scene clip yields a backbone, dcW5 deltas and int8 verdicts.
func gatedConfig() ServerConfig {
	cfg := tinyServerConfig()
	cfg.Delta = DeltaConfig{Enabled: true, MaxPSNRDrop: 100}
	cfg.Quant = QuantConfig{Enabled: true, MaxPSNRDrop: 100}
	return cfg
}

// objectPath is the file holding the object the root names by digest.
func objectPath(dir, digest string) string {
	return filepath.Join(dir, "objects", digest+".bin")
}

// flipByte flips one bit in the middle of the file at path.
func flipByte(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// copyDir returns a fresh copy of the directory tree at src.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// mustReadRoot parses dir's root JSON.
func mustReadRoot(t testing.TB, dir string) rootFile {
	t.Helper()
	root, err := readRoot(dir)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// playBoth plays p in both precisions.
func playBoth(t *testing.T, p *Prepared) (f32, int8 *PlayResult) {
	t.Helper()
	play := func(int8 bool) *PlayResult {
		pl := NewPlayer(p)
		pl.Int8 = int8
		res, err := pl.Play()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	return play(false), play(true)
}

// checkpointedSpans lists, in pipeline order, the spans of the most recent
// prepare trace that carry checkpoint=true (train_cluster children as
// "train_cluster/<label>").
func checkpointedSpans(o *obs.Obs) []string {
	traces := o.Trace.Traces()
	var out []string
	for _, st := range traces[len(traces)-1].Children {
		if st.Attrs["checkpoint"] == true {
			out = append(out, st.Name)
		}
		var clusters []string
		for _, c := range st.Children {
			if c.Attrs["checkpoint"] == true {
				clusters = append(clusters, fmt.Sprintf("%s/%v", c.Name, c.Attrs["label"]))
			}
		}
		sort.Strings(clusters) // clusters train concurrently
		out = append(out, clusters...)
	}
	return out
}

func TestSaveLoadRoundTrip(t *testing.T) {
	clip := testClip(t, 61, 2, 5)
	frames := clip.YUVFrames()
	cfg := tinyServerConfig()
	cfg.MicroConfig = edsr.Config{Filters: 4, ResBlocks: 1}
	prep, err := Prepare(frames, clip.FPS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := prep.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.K != prep.K || len(loaded.Segments) != len(prep.Segments) || loaded.FPS != prep.FPS {
		t.Fatalf("metadata mismatch: %+v vs %+v", loaded.K, prep.K)
	}
	if len(loaded.Models) != len(prep.Models) {
		t.Fatalf("loaded %d models, want %d", len(loaded.Models), len(prep.Models))
	}
	// Playback from the loaded artifact must be bit-identical to playback
	// from the in-memory pipeline output.
	a, err := NewPlayer(prep).Play()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlayer(loaded).Play()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Frames {
		for j := range a.Frames[i].Y {
			if a.Frames[i].Y[j] != b.Frames[i].Y[j] {
				t.Fatalf("frame %d differs after artifact round trip", i)
			}
		}
	}
	if a.TotalBytes() != b.TotalBytes() {
		t.Errorf("byte accounting differs: %d vs %d", a.TotalBytes(), b.TotalBytes())
	}
	// The artifact is the finished checkpoint, so it carries what a resume
	// would: features, the silhouette sweep and the train records.
	comparePrepared(t, loaded, prep)
	if len(loaded.Features) == 0 || !reflect.DeepEqual(loaded.Sweeps, prep.Sweeps) {
		t.Errorf("loaded artifact lost features (%d) or sweeps (%v vs %v)", len(loaded.Features), loaded.Sweeps, prep.Sweeps)
	}
	for label, sm := range loaded.Models {
		if sm.Train == nil || sm.Train.Steps == 0 {
			t.Errorf("loaded model %d has no train record", label)
		}
	}
}

// savedArtifact saves a gated Prepare of a three-scene clip — a root with
// a backbone, dcW5 deltas and int8 verdicts — and returns its directory.
func savedArtifact(tb testing.TB) string {
	tb.Helper()
	clip := testClip(tb, 7, 3, 8)
	prep, err := Prepare(clip.YUVFrames(), clip.FPS, gatedConfig())
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	if err := prep.Save(dir); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// rootJSON is root as Save writes it.
func rootJSON(tb testing.TB, root rootFile) []byte {
	tb.Helper()
	raw, err := json.MarshalIndent(&root, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// segmentEdits are hostile edits of a saved root's segment list, each
// with the segment (-1: the last) Load must name when it refuses it.
var segmentEdits = []struct {
	name string
	seg  int
	edit func(s []splitter.Segment)
}{
	{"negative End", -1, func(s []splitter.Segment) { s[len(s)-1].End = -1 }},
	{"End past the stream", -1, func(s []splitter.Segment) { s[len(s)-1].End++ }},
	{"gap", 1, func(s []splitter.Segment) { s[1].Start++ }},
	{"overlap", 1, func(s []splitter.Segment) { s[1].Start-- }},
	{"End 1<<40", -1, func(s []splitter.Segment) { s[len(s)-1].End = 1 << 40 }},
}

// editedRoot is orig with one segmentEdits edit applied to a copy of its
// segments.
func editedRoot(orig rootFile, edit func(s []splitter.Segment)) rootFile {
	root := orig
	root.Segments = slices.Clone(orig.Segments)
	edit(root.Segments)
	return root
}

// TestLoadRejectsBadSegments: a root whose segments do not tile the coded
// stream's frames is refused, naming the segment, before anything is
// sized from the segments.
func TestLoadRejectsBadSegments(t *testing.T) {
	dir := savedArtifact(t)
	orig := mustReadRoot(t, dir)
	if len(orig.Segments) < 2 {
		t.Fatalf("%d segments; the gap and overlap cases need two", len(orig.Segments))
	}
	for _, tc := range segmentEdits {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(filepath.Join(dir, rootName), rootJSON(t, editedRoot(orig, tc.edit)), 0o644); err != nil {
				t.Fatal(err)
			}
			seg := tc.seg
			if seg < 0 {
				seg = len(orig.Segments) - 1
			}
			if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("segment %d ", seg)) {
				t.Errorf("got %v, want an error naming segment %d", err, seg)
			}
		})
	}
}

func TestLoadRejectsCorruptArtifacts(t *testing.T) {
	clip := testClip(t, 7, 3, 8)
	prep, err := Prepare(clip.YUVFrames(), clip.FPS, gatedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(t.TempDir()); err == nil {
		t.Error("empty dir accepted")
	}
	dir := t.TempDir()
	if err := prep.Save(dir); err != nil {
		t.Fatal(err)
	}
	root := mustReadRoot(t, dir)
	streamPath := objectPath(dir, root.Stream)
	// Corrupt the stream.
	if err := os.WriteFile(streamPath, []byte("nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("corrupt stream accepted")
	}
	// Restore stream, corrupt the root.
	if err := os.WriteFile(streamPath, prep.Stream.Marshal(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err != nil {
		t.Fatalf("restored artifact rejected: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, rootName), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("corrupt root accepted")
	}

	// Load verifies what it arms: one flipped byte in any object the root
	// names is rejected, and the error names the object.
	var delta *deltaRecord
	for _, rec := range root.Models {
		if rec.Delta != nil && rec.Delta.DeltaOK {
			delta = rec.Delta
		}
	}
	if delta == nil {
		t.Fatal("no adopted delta to corrupt")
	}
	for what, digest := range map[string]string{
		"model weights": root.Models[prep.Manifest.Backbone.Label].Weights,
		"dcW5 delta":    delta.Payload,
		"coded stream":  root.Stream,
	} {
		dir := t.TempDir()
		if err := prep.Save(dir); err != nil {
			t.Fatal(err)
		}
		flipByte(t, objectPath(dir, digest))
		if _, err := Load(dir); err == nil {
			t.Errorf("one flipped byte in the %s accepted", what)
		} else if !strings.Contains(err.Error(), digest) {
			t.Errorf("%s: error does not name object %s: %v", what, digest, err)
		}
	}
	// A weights payload of the wrong size for the micro config is refused
	// before a model is built from it.
	dir = t.TempDir()
	if err := prep.Save(dir); err != nil {
		t.Fatal(err)
	}
	a, err := openArtifact(dir, mustReadRoot(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.update(func(r *rootFile) { r.Micro = &edsr.Config{Filters: 8, ResBlocks: 1} }); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "serializes to") {
		t.Errorf("mis-sized weights payload: got %v, want a size error", err)
	}

	// A root without the complete marker (Prepare running or killed) is
	// refused, and says so.
	dir = t.TempDir()
	if err := prep.Save(dir); err != nil {
		t.Fatal(err)
	}
	if a, err = openArtifact(dir, mustReadRoot(t, dir)); err != nil {
		t.Fatal(err)
	}
	if err := a.update(func(r *rootFile) { r.Complete = false }); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Errorf("incomplete artifact: got %v, want an error saying incomplete", err)
	}

	// Stray files in objects/ are not objects and are ignored.
	dir = t.TempDir()
	if err := prep.Save(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"1.bin.bak", "README", "0.bin"} {
		if err := os.WriteFile(filepath.Join(dir, "objects", name), []byte("stray"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatalf("stray files in objects/ broke Load: %v", err)
	}
	if len(loaded.Models) != len(prep.Models) {
		t.Errorf("stray files changed the model set: %d vs %d", len(loaded.Models), len(prep.Models))
	}

	// The retired layout is named, not half-read.
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "re-run dcsr-prepare") {
		t.Errorf("old-layout directory: got %v, want an error naming the retired layout", err)
	}
}

// TestDamagedCheckpointCostsWorkNeverWedges: a truncated root, a missing
// object and a corrupt object each make the resumed Prepare recompute what
// was lost — and repair the directory, so the next resume restores
// everything — instead of failing this and every later run.
func TestDamagedCheckpointCostsWorkNeverWedges(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the pipeline; skipped in short mode")
	}
	clip := testClip(t, 3, 3, 8)
	frames := clip.YUVFrames()
	fresh, err := Prepare(frames, clip.FPS, gatedConfig())
	if err != nil {
		t.Fatal(err)
	}
	damages := []struct {
		name   string
		damage func(t *testing.T, dir string, root rootFile)
	}{
		{"truncated root", func(t *testing.T, dir string, _ rootFile) {
			path := filepath.Join(dir, rootName)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"missing stream object", func(t *testing.T, dir string, root rootFile) {
			if err := os.Remove(objectPath(dir, root.Stream)); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped byte in trained weights", func(t *testing.T, dir string, root rootFile) {
			flipByte(t, objectPath(dir, root.Models[0].Weights))
		}},
	}
	for _, d := range damages {
		t.Run(d.name, func(t *testing.T) {
			cfg := gatedConfig()
			cfg.CheckpointDir = t.TempDir()
			if _, err := Prepare(frames, clip.FPS, cfg); err != nil {
				t.Fatal(err)
			}
			d.damage(t, cfg.CheckpointDir, mustReadRoot(t, cfg.CheckpointDir))
			// Load on a copy: Disk.Get drops what it finds corrupt, and the
			// resume below must meet the damage as a crashed host leaves it.
			if _, err := Load(copyDir(t, cfg.CheckpointDir)); err == nil {
				t.Error("Load accepted the damaged directory")
			}
			resumed, err := Prepare(frames, clip.FPS, cfg)
			if err != nil {
				t.Fatalf("resume over damaged checkpoint: %v", err)
			}
			comparePrepared(t, resumed, fresh)
			o := obs.New()
			cfg.Obs = o
			again, err := Prepare(frames, clip.FPS, cfg)
			if err != nil {
				t.Fatalf("second resume: %v", err)
			}
			comparePrepared(t, again, fresh)
			if got := o.Metrics.Snapshot().Counters["train_steps_total"]; got != 0 {
				t.Errorf("second resume trained %d steps, want 0 (the first repaired the checkpoint)", got)
			}
			loaded, err := Load(cfg.CheckpointDir)
			if err != nil {
				t.Fatalf("repaired directory does not load: %v", err)
			}
			comparePrepared(t, loaded, fresh)
		})
	}
}

// TestQuantCheckpointResume: a second Prepare over a complete checkpoint
// restores the int8 verdicts and re-arms from the stored scales instead of
// re-running the gate, composing with the delta stage's canonical weights
// — and so does one over a checkpoint cut just after the backbone's snap.
func TestQuantCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the pipeline; skipped in short mode")
	}
	clip := testClip(t, 3, 3, 8)
	frames := clip.YUVFrames()
	cfg := gatedConfig()
	cfg.CheckpointDir = t.TempDir()
	first, err := Prepare(frames, clip.FPS, cfg)
	if err != nil {
		t.Fatalf("first Prepare: %v", err)
	}
	o := obs.New()
	cfg.Obs = o
	second, err := Prepare(frames, clip.FPS, cfg)
	if err != nil {
		t.Fatalf("resumed Prepare: %v", err)
	}
	comparePrepared(t, second, first)
	if got := o.Metrics.Snapshot().Counters["train_steps_total"]; got != 0 {
		t.Errorf("resumed run trained %d steps, want 0", got)
	}
	restored := strings.Join(checkpointedSpans(o), " ")
	for _, stage := range []string{"delta_encode", "quantize_int8"} {
		if !strings.Contains(restored, stage) {
			t.Errorf("stage %s was recomputed on resume (restored: %s)", stage, restored)
		}
	}
	int8Models := 0
	for label, sm := range first.Models {
		rm := second.Models[label]
		if sm.Quant == nil || rm.Quant == nil {
			t.Fatalf("model %d quant verdict missing (first %v, resumed %v)", label, sm.Quant, rm.Quant)
		}
		if !reflect.DeepEqual(rm.Quant, sm.Quant) {
			t.Errorf("model %d quant verdict drifted across resume: %+v vs %+v", label, rm.Quant, sm.Quant)
		}
		if !sm.Quant.Int8OK {
			continue
		}
		int8Models++
		if !rm.Model.Int8Ready() {
			t.Fatalf("resumed model %d not re-armed for int8", label)
		}
		a, b := sm.Model.EnhanceInt8(first.LowIFrames[0]), rm.Model.EnhanceInt8(first.LowIFrames[0])
		if !reflect.DeepEqual(a.Pix, b.Pix) {
			t.Errorf("model %d int8 output differs between computed and restored scales", label)
		}
	}
	if int8Models == 0 {
		t.Fatal("no model passed the int8 gate; the test exercises nothing")
	}
	_, want := playBoth(t, first)
	_, got := playBoth(t, second)
	framesIdentical(t, got.Frames, want.Frames, "int8 playback, computed vs resumed")

	// A kill right after the backbone's snap: the resume restores the
	// snapped backbone from its grid object and codes the deltas against
	// it, so every payload and verdict is the uninterrupted run's.
	bb := first.Manifest.Backbone
	if bb == nil || !nn.IsGridPayload(first.Models[bb.Label].Bytes) {
		t.Fatal("the uninterrupted run published no int8-grid backbone")
	}
	var upToSnap []prepStage
	for _, st := range prepareStages() {
		upToSnap = append(upToSnap, st)
		if st.name == "quantize_backbone" {
			break
		}
	}
	cfg.CheckpointDir, cfg.Obs = t.TempDir(), nil
	if _, err := prepareWith(context.Background(), frames, clip.FPS, cfg, upToSnap); err != nil {
		t.Fatal(err)
	}
	if rec := mustReadRoot(t, cfg.CheckpointDir).Models[bb.Label]; rec.Quant == nil || rec.Quant.Grid == "" {
		t.Fatal("the cut root names no int8 grid for the backbone")
	}
	o = obs.New()
	cfg.Obs = o
	resumed, err := Prepare(frames, clip.FPS, cfg)
	if err != nil {
		t.Fatalf("resume after the snap: %v", err)
	}
	if !slices.Contains(checkpointedSpans(o), "quantize_backbone") {
		t.Error("the resume recomputed the backbone's snap")
	}
	comparePrepared(t, resumed, first)
	for label, sm := range first.Models {
		rm := resumed.Models[label]
		if !reflect.DeepEqual(rm.Quant, sm.Quant) {
			t.Errorf("model %d int8 verdict %+v, uninterrupted %+v", label, rm.Quant, sm.Quant)
		}
		if (rm.Delta == nil) != (sm.Delta == nil) || rm.Delta != nil && (rm.Delta.DeltaOK != sm.Delta.DeltaOK || !bytes.Equal(rm.Delta.Bytes, sm.Delta.Bytes)) {
			t.Errorf("model %d delta verdict or payload differs from the uninterrupted run's", label)
		}
	}
}

// TestCrashConsistencyAtEveryStage cuts the pipeline after every stage —
// and, inside training, after every cluster's model — against a fresh
// checkpoint directory. Wherever the kill lands: Load refuses the
// directory as incomplete; a resume restores exactly the stages that
// finished, recomputes the rest, and is bit-identical to a from-scratch
// run; and the finished directory loads and plays pixel-identically to
// the in-memory result in both precisions.
func TestCrashConsistencyAtEveryStage(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the pipeline many times; skipped in short mode")
	}
	clip := testClip(t, 3, 3, 8)
	frames := clip.YUVFrames()
	fresh, err := Prepare(frames, clip.FPS, gatedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Models) < 2 {
		t.Fatalf("need ≥ 2 models to cut inside training, have %d", len(fresh.Models))
	}
	f32Want, int8Want := playBoth(t, fresh)

	type cut struct {
		name   string
		stages []prepStage
		want   []string // spans the resume must restore rather than recompute
	}
	var cuts []cut
	var restored []string
	stages := prepareStages()
	for i, st := range stages {
		if st.skip != nil && st.skip(&prepState{cfg: gatedConfig()}) {
			continue
		}
		if st.name == "train_micro_models" {
			// A kill after j of the K models: the root names j records, the
			// other models' objects are garbage no root refers to.
			for j := 0; j < len(fresh.Models); j++ {
				kill := prepStage{name: "kill", run: func(_ context.Context, _ *obs.Span, s *prepState) error {
					return s.ck.update(func(r *rootFile) {
						for label := range r.Models {
							if label >= j {
								delete(r.Models, label)
							}
						}
					})
				}}
				cuts = append(cuts, cut{
					name:   fmt.Sprintf("%s after %d models", st.name, j),
					stages: append(append([]prepStage{}, stages[:i+1]...), kill),
					want:   append([]string{}, restored...),
				})
				restored = append(restored, fmt.Sprintf("train_cluster/%d", j))
			}
		}
		if i < len(stages)-1 {
			switch st.name {
			case "split", "decode_low": // recomputed on every run by design
			case "train_micro_models": // its train_cluster children carry the mark
			default:
				restored = append(restored, st.name)
			}
			cuts = append(cuts, cut{name: "after " + st.name, stages: stages[:i+1], want: append([]string{}, restored...)})
		}
	}
	cuts = append([]cut{{name: "before split"}}, cuts...)

	for _, c := range cuts {
		t.Run(c.name, func(t *testing.T) {
			cfg := gatedConfig()
			cfg.CheckpointDir = t.TempDir()
			if _, err := prepareWith(context.Background(), frames, clip.FPS, cfg, c.stages); err != nil {
				t.Fatalf("running the pipeline up to the cut: %v", err)
			}
			if _, err := Load(cfg.CheckpointDir); err == nil {
				t.Fatal("Load accepted a checkpoint whose pipeline never finished")
			} else if len(c.stages) > 0 && !strings.Contains(err.Error(), "incomplete") {
				t.Errorf("Load error does not say incomplete: %v", err)
			}
			o := obs.New()
			cfg.Obs = o
			resumed, err := Prepare(frames, clip.FPS, cfg)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			comparePrepared(t, resumed, fresh)
			if got := checkpointedSpans(o); !reflect.DeepEqual(got, c.want) && (len(got) > 0 || len(c.want) > 0) {
				t.Errorf("resume restored %v, want exactly %v", got, c.want)
			}
			loaded, err := Load(cfg.CheckpointDir)
			if err != nil {
				t.Fatalf("finished directory does not load: %v", err)
			}
			comparePrepared(t, loaded, fresh)
			f32Got, int8Got := playBoth(t, loaded)
			framesIdentical(t, f32Got.Frames, f32Want.Frames, "float32 playback, loaded vs in-memory")
			framesIdentical(t, int8Got.Frames, int8Want.Frames, "int8 playback, loaded vs in-memory")
			if int8Got.Decode.EnhancedInt8 == 0 {
				t.Error("loaded artifact served no int8 frames")
			}
		})
	}
}

// TestArtifactGarbageAndOverwrite: an object put but never named by a root
// (a kill between Put and the root flush) and the temp files of a write
// cut short are harmless — Load leaves them alone, the next Prepare over
// the directory deletes the temp files — and Save over a complete
// artifact of a different video leaves a loadable artifact of the new one.
func TestArtifactGarbageAndOverwrite(t *testing.T) {
	cfg := tinyServerConfig()
	clipA, clipB := testClip(t, 61, 2, 5), testClip(t, 9, 2, 4)
	a, err := Prepare(clipA.YUVFrames(), clipA.FPS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Prepare(clipB.YUVFrames(), clipB.FPS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := a.Save(dir); err != nil {
		t.Fatal(err)
	}
	art, err := openArtifact(dir, mustReadRoot(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	// A put whose root flush never happened: the old root stays in place.
	if _, err := art.store.Put([]byte("an object no root names")); err != nil {
		t.Fatal(err)
	}
	// Writes killed between temp file and rename, of the root and of an object.
	temps := []string{filepath.Join(dir, rootName+".tmp-1"), objectPath(dir, "0a") + ".tmp-2"}
	for _, p := range temps {
		if err := os.WriteFile(p, []byte("half a wri"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatalf("unnamed object and temp files broke Load: %v", err)
	}
	comparePrepared(t, loaded, a)
	for _, p := range temps {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("Load, a reader, removed %s: %v", p, err)
		}
	}
	if _, err := resumeArtifact(dir, rootFile{}, nil); err != nil {
		t.Fatal(err)
	}
	for _, p := range temps {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("opening %s for writing left %s behind (stat: %v)", dir, p, err)
		}
	}
	if loaded, err = Load(dir); err != nil {
		t.Fatalf("sweeping temp files broke Load: %v", err)
	}
	comparePrepared(t, loaded, a)
	if err := b.Save(dir); err != nil {
		t.Fatal(err)
	}
	if loaded, err = Load(dir); err != nil {
		t.Fatalf("Save over another video's artifact: %v", err)
	}
	comparePrepared(t, loaded, b)
}

func TestSegmentStream(t *testing.T) {
	clip := testClip(t, 67, 2, 5)
	frames := clip.YUVFrames()
	cfg := tinyServerConfig()
	cfg.MicroConfig = edsr.Config{Filters: 4, ResBlocks: 1}
	prep, err := Prepare(frames, clip.FPS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, seg := range prep.Segments {
		sub, err := prep.SegmentStream(i)
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		if sub.FrameCount() != seg.Len() {
			t.Fatalf("segment %d has %d frames, want %d", i, sub.FrameCount(), seg.Len())
		}
		total += sub.FrameCount()
	}
	if total != len(frames) {
		t.Fatalf("segments cover %d frames of %d", total, len(frames))
	}
	if _, err := prep.SegmentStream(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := prep.SegmentStream(len(prep.Segments)); err == nil {
		t.Error("out-of-range index accepted")
	}
}
