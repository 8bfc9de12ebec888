// Package modelstore is the model artifact layer of dcSR: micro models
// are trained per cluster, shipped over the network, and cached on
// device (paper §3.2, Algorithm 1), so their serialized weights are
// first-class artifacts with a lifecycle — produced by core.Prepare,
// published by an origin, downloaded and evicted by clients.
//
// A payload is the unit throughout: one address, one cache entry. The
// package provides two pieces:
//
//   - Disk, a content-addressed directory of payloads keyed by their
//     SHA-256 digest (the object store under core's artifact root).
//     Identical payloads dedupe automatically: two clusters that train
//     to identical weights occupy one object.
//   - BoundedCache, the client-side byte-budgeted LRU that replaces the
//     boolean "have I downloaded label L" set of Algorithm 1 with real
//     bytes under a budget; evictions force the label's next reference
//     to re-fetch lazily.
//
// Both carry the stable obs metric surface (modelstore_puts_total,
// modelstore_hits_total, modelstore_evictions_total and the
// modelstore_bytes gauge — see docs/OPERATIONS.md); a nil Obs disables
// instrumentation at no cost.
package modelstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"dcsr/internal/obs"
)

// Digest is the content address of a stored payload: its SHA-256.
type Digest [sha256.Size]byte

// DigestOf computes the content address of a payload.
func DigestOf(data []byte) Digest { return sha256.Sum256(data) }

// String renders the digest as lowercase hex (the Disk filename stem).
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// ParseDigest parses the hex form produced by Digest.String.
func ParseDigest(s string) (Digest, error) {
	var d Digest
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(d) {
		return d, fmt.Errorf("modelstore: malformed digest %q", s)
	}
	copy(d[:], raw)
	return d, nil
}

// Disk is a content-addressed directory of serialized model weights: one
// file per object named <hex-digest>.bin (the object store under a core
// artifact root). Writes go through WriteFileAtomic, so a crashed writer
// never leaves a half object behind and a finished Put is durable before
// anything names it. A Disk is safe for concurrent use.
type Disk struct {
	dir string
	mu  sync.Mutex

	// Obs receives modelstore_puts_total / modelstore_hits_total and the
	// modelstore_bytes gauge; nil disables instrumentation.
	Obs *obs.Obs
}

// NewDisk opens (creating if needed) a disk store rooted at dir.
func NewDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	return &Disk{dir: dir}, nil
}

// Dir returns the backing directory.
func (s *Disk) Dir() string { return s.dir }

func (s *Disk) path(d Digest) string {
	return filepath.Join(s.dir, d.String()+".bin")
}

// Put stores data and returns its digest. Storing a payload that is
// already present is a no-op (dedupe) returning the same digest; the
// object file is re-hashed first, and one that no longer holds the
// payload (truncated, flipped) is rewritten, so a Put never vouches for
// bytes a later Get would drop.
func (s *Disk) Put(data []byte) (Digest, error) {
	d := DigestOf(data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, err := os.ReadFile(s.path(d)); err == nil && DigestOf(old) == d {
		s.Obs.Counter("modelstore_hits_total").Inc()
		return d, nil // dedupe: the object is already on disk
	}
	if err := WriteFileAtomic(s.path(d), data); err != nil {
		return d, err
	}
	s.Obs.Counter("modelstore_puts_total").Inc()
	s.Obs.Gauge("modelstore_bytes").Add(int64(len(data)))
	return d, nil
}

// WriteFileAtomic replaces path with data via temp file → fsync → close →
// rename: a reader sees the old bytes or the new ones, never a prefix,
// and the new ones are on stable storage before the name points at them.
// The temp file is path's sibling <base>.tmp-<random>; it is removed on
// every failure, so only a kill can leave one behind — for whoever next
// opens the directory for writing to delete, never a reader.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("modelstore: writing %s: %w", path, err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		//lint:allow errcheck best-effort cleanup of the doomed temp file; the write error is what gets reported
		os.Remove(tmp.Name())
		return fmt.Errorf("modelstore: writing %s: %w", path, err)
	}
	return nil
}

// Get returns the payload for d, or an error satisfying
// errors.Is(err, os.ErrNotExist) when absent. The payload is re-hashed on
// the way out: a truncated or corrupted object file (digest mismatch) is
// treated as a miss — the broken file is deleted so the next Put can
// repopulate it — rather than handed to a caller that would arm garbage
// weights.
func (s *Disk) Get(d Digest) ([]byte, error) {
	data, err := os.ReadFile(s.path(d))
	if err != nil {
		return nil, fmt.Errorf("modelstore: object %s: %w", d, err)
	}
	if DigestOf(data) != d {
		s.mu.Lock()
		os.Remove(s.path(d))
		s.mu.Unlock()
		return nil, fmt.Errorf("modelstore: object %s corrupt on disk, dropped: %w", d, os.ErrNotExist)
	}
	s.Obs.Counter("modelstore_hits_total").Inc()
	return data, nil
}

// SizeBytes returns the total payload bytes currently stored.
func (s *Disk) SizeBytes() int64 {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".bin" {
			continue
		}
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}
