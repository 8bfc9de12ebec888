package core

import (
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzLoadRoot: whatever bytes stand in stages.json over a real
// artifact's objects, Load returns an error or a Prepared whose manifest
// a viewer accepts — never a panic — and allocates no more than a few
// times what the real artifact costs plus a constant per input byte (a
// root can name the same stored model once per label, each record a few
// dozen bytes).
func FuzzLoadRoot(f *testing.F) {
	const fuzzAllocPerByte = 1024
	dir := savedArtifact(f)
	path := filepath.Join(dir, rootName)
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	for _, n := range []int{0, 1, len(raw) / 4, len(raw) / 2, len(raw) - 2} {
		f.Add(raw[:n])
	}
	orig := mustReadRoot(f, dir)
	for _, tc := range segmentEdits {
		f.Add(rootJSON(f, editedRoot(orig, tc.edit)))
	}
	// A cluster count no loop over labels may trust (with no adopted
	// delta to end the backbone search early), and adopted deltas against
	// a backbone label with no model.
	cluster := *orig.Cluster
	cluster.K = 1 << 62
	root := orig
	root.Cluster = &cluster
	root.Models = maps.Clone(orig.Models)
	for label, rec := range root.Models {
		r := *rec
		r.Delta = nil
		root.Models[label] = &r
	}
	f.Add(rootJSON(f, root))
	root = orig
	root.Models = maps.Clone(orig.Models)
	for label, rec := range root.Models {
		if rec.Delta != nil && rec.Delta.DeltaOK {
			r, d := *rec, *rec.Delta
			d.BackboneLabel = orig.Cluster.K
			r.Delta = &d
			root.Models[label] = &r
		}
	}
	f.Add(rootJSON(f, root))
	base := allocated(func() {
		if _, err := Load(dir); err != nil {
			f.Fatal(err)
		}
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip() // keeps the allocation bound itself small
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var p *Prepared
		var err error
		if n, limit := allocated(func() { p, err = Load(dir) }), 4*base+uint64(fuzzAllocPerByte*len(data)); n > limit {
			t.Fatalf("a %d-byte root allocated %d, limit %d", len(data), n, limit)
		}
		if err != nil {
			return
		}
		if err := p.Manifest.ValidateFor(p.MicroConfig); err != nil {
			t.Fatalf("Load accepted a root whose manifest a viewer refuses: %v", err)
		}
	})
}
