package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"dcsr/internal/cluster"
	"dcsr/internal/codec"
	"dcsr/internal/edsr"
	"dcsr/internal/modelstore"
	"dcsr/internal/obs"
	"dcsr/internal/splitter"
	"dcsr/internal/stream"
	"dcsr/internal/video"
)

// A prepared video has one on-disk form (DESIGN.md §9), whether it is a
// Prepare in flight (ServerConfig.CheckpointDir), the directory a finished
// one leaves behind, or what Save writes from memory — the published
// artifact is the checkpoint whose last stage is complete:
//
//	<dir>/stages.json — the root: small results inline, payloads by digest
//	<dir>/objects/    — modelstore.Disk: coded stream, weights, dcW5 deltas,
//	                    dcW6 int8 grids
//
// One write protocol: objects first (Disk.Put), then the root, each
// through modelstore.WriteFileAtomic (temp → fsync → rename). A kill at
// any instant leaves the previous root, which names only objects put —
// and synced — before it; an object no root names is harmless garbage.
// Disk.Get re-hashes every payload, so a torn or flipped object is a miss
// (recomputed on resume, an error on Load), never served.

const (
	rootName    = "stages.json"
	rootVersion = 2 // 1 was the resume-only stages.json; it is discarded
)

// rootFile is the root JSON. Fields fill in stage order; the manifest
// stage sets Complete, which is what Load requires.
type rootFile struct {
	Version int `json:"version"`
	// InputDigest (prepareInputDigest) keeps a resume from splicing stages
	// of different inputs; a Save from memory has none and never resumes.
	InputDigest string               `json:"input_digest,omitempty"`
	FPS         int                  `json:"fps"`
	BigModel    edsr.Config          `json:"big_model"`
	Segments    []splitter.Segment   `json:"segments,omitempty"`
	Stream      string               `json:"stream,omitempty"` // digest of Stream.Marshal()
	Features    [][]float64          `json:"features,omitempty"`
	Micro       *edsr.Config         `json:"micro,omitempty"`
	Cluster     *clusterRecord       `json:"cluster,omitempty"`
	Models      map[int]*modelRecord `json:"models,omitempty"` // by label; JSON sorts the keys
	Complete    bool                 `json:"complete,omitempty"`
}

type clusterRecord struct {
	K      int             `json:"k"`
	Assign []int           `json:"assign"`
	Sweeps []cluster.Sweep `json:"sweeps,omitempty"`
}

// modelRecord is one cluster's model: the trained weights, then each
// later stage's verdict as it lands.
type modelRecord struct {
	Weights string            `json:"weights"` // digest of the trained dcW1 weights (Save: of the payload the model ships)
	Train   *edsr.TrainResult `json:"train,omitempty"`
	Delta   *deltaRecord      `json:"delta,omitempty"`
	Quant   *quantRecord      `json:"quant,omitempty"`
}

// deltaRecord is a DeltaResult with its payload in the store; an adopted
// delta also names the canonical weights that replace the trained ones.
type deltaRecord struct {
	DeltaResult
	Payload   string `json:"payload,omitempty"`
	Canonical string `json:"canonical,omitempty"`
}

// quantRecord is a QuantResult; a model the int8 stage snapped onto its
// int8 grid also names the dcW6 payload that replaces the weights before
// it. (Save writes a model's current payload as its weights, so a saved
// root names no grid; roots written before the int8 grid name none
// either, and their int8 models stay float32 payloads.)
type quantRecord struct {
	QuantResult
	Grid string `json:"grid,omitempty"`
}

// artifact is an open artifact directory. A nil *artifact disables
// persistence: state is empty (every stage misses), update does nothing.
type artifact struct {
	mu    sync.Mutex
	dir   string
	store *modelstore.Disk
	root  rootFile
	err   error // first failed put; sticky, reported by update
}

// readRoot parses dir's root, rejecting other versions.
func readRoot(dir string) (root rootFile, err error) {
	path := filepath.Join(dir, rootName)
	raw, err := os.ReadFile(path)
	if err != nil {
		return root, err
	}
	if err := json.Unmarshal(raw, &root); err != nil {
		return root, fmt.Errorf("core: parsing %s: %w", path, err)
	}
	if root.Version != rootVersion {
		return root, fmt.Errorf("core: %s is version %d, want %d", path, root.Version, rootVersion)
	}
	return root, nil
}

// openArtifact opens dir with root as its state, creating the object store
// if needed. Nothing is written until the first update.
func openArtifact(dir string, root rootFile) (*artifact, error) {
	store, err := modelstore.NewDisk(filepath.Join(dir, "objects"))
	if err != nil {
		return nil, err
	}
	root.Version = rootVersion
	if root.Models == nil {
		root.Models = map[int]*modelRecord{}
	}
	return &artifact{dir: dir, store: store, root: root}, nil
}

// resumeArtifact opens the checkpoint under dir for a Prepare over the
// inputs fresh describes. A root that is missing, unreadable, of another
// version or of other inputs costs work, never an error: fresh replaces it.
func resumeArtifact(dir string, fresh rootFile, log *obs.Logger) (*artifact, error) {
	prev, err := readRoot(dir)
	switch {
	case err == nil && prev.InputDigest == fresh.InputDigest:
		fresh = prev
	case err != nil && !errors.Is(err, os.ErrNotExist):
		log.Warn("prepare: checkpoint root unusable, starting fresh", "dir", dir, "err", err)
	}
	a, err := openArtifact(dir, fresh)
	if err != nil {
		return nil, err
	}
	// A Prepare is its directory's one writer, so temp files a killed run
	// left (WriteFileAtomic's *.tmp-*) are its to delete. Load never
	// does: the temp file it met could be a live Prepare's.
	for _, d := range []string{dir, a.store.Dir()} {
		stale, _ := filepath.Glob(filepath.Join(d, "*.tmp-*")) // the pattern is well-formed
		for _, p := range stale {
			os.Remove(p) // best effort: one that stays is harmless garbage
		}
	}
	return a, nil
}

// state snapshots the root for a stage to restore from (Models is copied:
// training workers replace its entries concurrently).
func (a *artifact) state() rootFile {
	if a == nil {
		return rootFile{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	snap := a.root
	snap.Models = maps.Clone(a.root.Models)
	return snap
}

// update is the one writer: fn edits the root under the lock, putting the
// objects it names first; the result is flushed unless a put failed.
func (a *artifact) update(fn func(r *rootFile)) error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if fn(&a.root); a.err != nil {
		return a.err
	}
	raw, err := json.MarshalIndent(&a.root, "", "  ")
	if err != nil {
		return err
	}
	return modelstore.WriteFileAtomic(filepath.Join(a.dir, rootName), raw)
}

// put stores one payload and returns the digest the root names it by.
// Only update's fn may call it; a failure fails that update and all later.
func (a *artifact) put(data []byte) string {
	d, err := a.store.Put(data)
	if err != nil && a.err == nil {
		a.err = err
	}
	return d.String()
}

// object fetches a payload by the digest the root names; Disk.Get
// re-hashes it, so what comes back is what was put or an error.
func (a *artifact) object(digest string) ([]byte, error) {
	d, err := modelstore.ParseDigest(digest)
	if err != nil {
		return nil, err
	}
	return a.store.Get(d)
}

// putDelta stores sm's delta verdict: for an adopted delta, the dcW5
// payload and the canonical weights sm now carries.
func (a *artifact) putDelta(sm *SegmentModel) *deltaRecord {
	rec := &deltaRecord{DeltaResult: *sm.Delta}
	if sm.Delta.DeltaOK {
		rec.Payload, rec.Canonical = a.put(sm.Delta.Bytes), a.put(sm.Bytes)
	}
	return rec
}

// stream restores the coded stream the root names.
func (a *artifact) stream(digest string) (*codec.Stream, error) {
	raw, err := a.object(digest)
	if err != nil {
		return nil, fmt.Errorf("core: coded stream: %w", err)
	}
	return codec.Unmarshal(raw)
}

// weights builds a model of configuration cfg from a stored payload
// (stream.LoadModel size-checks it against cfg before allocating).
func (a *artifact) weights(digest string, cfg edsr.Config) (*edsr.Model, []byte, error) {
	data, err := a.object(digest)
	if err != nil {
		return nil, nil, err
	}
	m, err := stream.LoadModel(cfg, data)
	return m, data, err
}

// restoreModel is the one model restore. It rebuilds label's model as far
// as its record goes: trained weights, then the delta verdict (an adopted
// delta swaps in its canonical weights), then the int8 verdict (a snapped
// model swaps in its int8 grid; a passing model re-arms from its stored
// scales, no calibration pass). Load treats
// any error as fatal; the resuming train stage keeps the model as restored
// up to the error (nil: not even the trained weights) and the later stages
// recompute the verdicts it lacks.
func (a *artifact) restoreModel(label int, cfg edsr.Config, rec *modelRecord) (*SegmentModel, error) {
	if rec == nil {
		return nil, fmt.Errorf("core: model %d has no record", label)
	}
	m, data, err := a.weights(rec.Weights, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: model %d weights: %w", label, err)
	}
	sm := &SegmentModel{Label: label, Config: cfg, Model: m, Bytes: data, Train: rec.Train}
	if d := rec.Delta; d != nil {
		res := d.DeltaResult
		if res.DeltaOK {
			if res.Bytes, err = a.object(d.Payload); err != nil {
				return sm, fmt.Errorf("core: model %d delta payload: %w", label, err)
			}
			if m, data, err = a.weights(d.Canonical, cfg); err != nil {
				return sm, fmt.Errorf("core: model %d canonical weights: %w", label, err)
			}
			sm.Model, sm.Bytes = m, data
		}
		sm.Delta = &res
	}
	if q := rec.Quant; q != nil {
		if q.Grid != "" {
			if m, data, err = a.weights(q.Grid, cfg); err != nil {
				return sm, fmt.Errorf("core: model %d int8 grid: %w", label, err)
			}
			sm.Model, sm.Bytes = m, data
		}
		if q.Int8OK {
			if err := sm.Model.CalibrateFromScales(q.ActScales); err != nil {
				return sm, fmt.Errorf("core: re-arming int8 model %d: %w", label, err)
			}
		}
		sm.Quant = &q.QuantResult
	}
	return sm, nil
}

// Save writes p to dir as a complete artifact: every object is put, then
// one root naming them is flushed, so whatever dir held before stays
// intact until the new artifact is whole.
func (p *Prepared) Save(dir string) error {
	a, err := openArtifact(dir, rootFile{})
	if err != nil {
		return err
	}
	return a.update(func(r *rootFile) {
		*r = rootFile{
			Version: rootVersion, FPS: p.FPS, BigModel: p.BigModel, Segments: p.Segments,
			Stream: a.put(p.Stream.Marshal()), Features: p.Features, Micro: &p.MicroConfig,
			Cluster: &clusterRecord{K: p.K, Assign: p.Assign, Sweeps: p.Sweeps},
			Models:  map[int]*modelRecord{}, Complete: true,
		}
		for label, sm := range p.Models {
			rec := &modelRecord{Weights: a.put(sm.Bytes), Train: sm.Train}
			if sm.Delta != nil {
				rec.Delta = a.putDelta(sm)
			}
			if sm.Quant != nil {
				rec.Quant = &quantRecord{QuantResult: *sm.Quant}
			}
			r.Models[label] = rec
		}
	})
}

// Load opens a complete artifact — the CheckpointDir of a finished Prepare
// or a directory Save wrote — and reconstructs a playable Prepared (only
// the evaluation frames LowIFrames/OrigIFrames are not persisted). Every
// payload is hash-checked: a damaged or unfinished directory is an error.
func Load(dir string) (*Prepared, error) {
	root, err := readRoot(dir)
	if err != nil {
		if _, serr := os.Stat(filepath.Join(dir, "meta.json")); serr == nil {
			return nil, fmt.Errorf("core: %s holds the retired meta.json artifact layout, which is no longer read; re-run dcsr-prepare", dir)
		}
		return nil, err
	}
	if !root.Complete || root.Micro == nil || root.Cluster == nil || len(root.Segments) == 0 {
		return nil, fmt.Errorf("core: artifact %s is incomplete — its Prepare is still running or was interrupted; rerun to resume", dir)
	}
	a, err := openArtifact(dir, root)
	if err != nil {
		return nil, err
	}
	p := &Prepared{
		FPS: root.FPS, Segments: root.Segments, Features: root.Features,
		K: root.Cluster.K, Assign: root.Cluster.Assign, Sweeps: root.Cluster.Sweeps,
		MicroConfig: *root.Micro, BigModel: root.BigModel, Models: make(map[int]*SegmentModel),
	}
	if p.Stream, err = a.stream(root.Stream); err != nil {
		return nil, err
	}
	// buildManifest and backboneLabel index by what follows, so a root that
	// forges it is an error here, not a panic, a hang or an allocation.
	if err := checkSegments(p.Segments, len(p.Stream.Frames)); err != nil {
		return nil, fmt.Errorf("core: artifact %s: %w", dir, err)
	}
	if p.K < 1 || p.K > len(p.Segments) {
		return nil, fmt.Errorf("core: artifact %s: %d clusters for %d segments", dir, p.K, len(p.Segments))
	}
	labels := make([]int, 0, len(root.Models))
	for label := range root.Models {
		labels = append(labels, label)
	}
	sort.Ints(labels) // TrainFLOPs sums in label order, as stageTrain does
	for _, label := range labels {
		if label < 0 || label >= p.K {
			return nil, fmt.Errorf("core: artifact %s: model %d is not one of its %d clusters", dir, label, p.K)
		}
		sm, err := a.restoreModel(label, p.MicroConfig, root.Models[label])
		if err != nil {
			return nil, err
		}
		if sm.Train != nil {
			p.TrainFLOPs += sm.Train.TrainFLOPs
		}
		p.Models[label] = sm
	}
	for _, label := range labels {
		if d := p.Models[label].Delta; d != nil && d.DeltaOK && p.Models[d.BackboneLabel] == nil {
			return nil, fmt.Errorf("core: artifact %s: model %d is a delta against backbone %d, which has no model", dir, label, d.BackboneLabel)
		}
	}
	p.Manifest = buildManifest(p)
	if err := p.Manifest.Validate(); err != nil {
		return nil, fmt.Errorf("core: loaded artifact inconsistent: %w", err)
	}
	return p, nil
}

// checkSegments verifies that segs tile the coded stream's display range
// [0, frames) in order, each segment non-empty — what buildManifest sizes
// its display table from, so a hostile root is an error, not a panic or
// an allocation it chose.
func checkSegments(segs []splitter.Segment, frames int) error {
	next := 0
	for i, s := range segs {
		if s.Start != next || s.End <= s.Start || s.End > frames {
			return fmt.Errorf("segment %d is [%d, %d), want a non-empty range from frame %d within the stream's %d frames", i, s.Start, s.End, next, frames)
		}
		next = s.End
	}
	if next != frames {
		return fmt.Errorf("segment %d ends at frame %d, short of the stream's %d frames", len(segs)-1, next, frames)
	}
	return nil
}

// prepareInputDigest fingerprints everything that determines the pipeline
// output — raw frames, fps, and the config minus its runtime-only fields
// (observability and the checkpoint location don't change what gets
// computed) — so a checkpoint only resumes the run that produced it.
func prepareInputDigest(frames []*video.YUV, fps int, cfg ServerConfig) string {
	cfg.Obs, cfg.CheckpointDir = nil, ""
	cj, err := json.Marshal(cfg)
	if err != nil {
		panic(fmt.Sprintf("core: config not serializable: %v", err))
	}
	h := sha256.New()
	write := func(b []byte) {
		if _, err := h.Write(b); err != nil {
			panic(err) // hash.Hash.Write is documented never to fail
		}
	}
	write(fmt.Appendf(cj, " %d fps, %d frames", fps, len(frames)))
	for _, f := range frames {
		write(fmt.Appendf(nil, " %dx%d ", f.W, f.H))
		write(f.Y)
		write(f.U)
		write(f.V)
	}
	return hex.EncodeToString(h.Sum(nil))
}
