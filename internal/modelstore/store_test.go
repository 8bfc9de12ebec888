package modelstore

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dcsr/internal/obs"
)

// storeBackends builds the store the shared contract tests run over.
func storeBackends(t *testing.T) map[string]*Disk {
	t.Helper()
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Disk{"disk": disk}
}

func TestStoreRoundTrip(t *testing.T) {
	for name, s := range storeBackends(t) {
		t.Run(name, func(t *testing.T) {
			payload := []byte("micro model weights")
			d, err := s.Put(payload)
			if err != nil {
				t.Fatal(err)
			}
			if want := DigestOf(payload); d != want {
				t.Fatalf("Put digest %s, want %s", d, want)
			}
			if !s.Has(d) {
				t.Fatal("Has = false after Put")
			}
			got, err := s.Get(d)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("Get = %q, want %q", got, payload)
			}
			if n := s.SizeBytes(); n != int64(len(payload)) {
				t.Fatalf("SizeBytes = %d, want %d", n, len(payload))
			}
		})
	}
}

func TestStoreDedupe(t *testing.T) {
	// Two identical trained cluster models must be stored once: same
	// digest, single object, single payload's worth of bytes.
	for name, s := range storeBackends(t) {
		t.Run(name, func(t *testing.T) {
			payload := []byte("identical cluster weights")
			d1, err := s.Put(payload)
			if err != nil {
				t.Fatal(err)
			}
			d2, err := s.Put(append([]byte(nil), payload...))
			if err != nil {
				t.Fatal(err)
			}
			if d1 != d2 {
				t.Fatalf("identical payloads got digests %s and %s", d1, d2)
			}
			if got := len(s.Digests()); got != 1 {
				t.Fatalf("store holds %d objects, want 1 (dedupe)", got)
			}
			if n := s.SizeBytes(); n != int64(len(payload)) {
				t.Fatalf("SizeBytes = %d after dedupe, want %d", n, len(payload))
			}
		})
	}
}

func TestStoreGetMissing(t *testing.T) {
	for name, s := range storeBackends(t) {
		t.Run(name, func(t *testing.T) {
			_, err := s.Get(DigestOf([]byte("never stored")))
			if !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("Get missing = %v, want os.ErrNotExist", err)
			}
		})
	}
}

func TestDiskStoreReopens(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s1.Put([]byte("persisted weights"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Has(d) {
		t.Fatal("reopened store lost the object")
	}
	got, err := s2.Get(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "persisted weights" {
		t.Fatalf("reopened Get = %q", got)
	}
	if ds := s2.Digests(); len(ds) != 1 || ds[0] != d {
		t.Fatalf("reopened Digests = %v", ds)
	}
}

func TestParseDigest(t *testing.T) {
	d := DigestOf([]byte("x"))
	back, err := ParseDigest(d.String())
	if err != nil || back != d {
		t.Fatalf("ParseDigest round trip: %v %s", err, back)
	}
	if _, err := ParseDigest("zz"); err == nil {
		t.Fatal("ParseDigest accepted malformed input")
	}
}

func TestStoreMetrics(t *testing.T) {
	o := obs.New()
	m, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m.Obs = o
	payload := []byte("weights")
	if _, err := m.Put(payload); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Put(payload); err != nil { // dedupe hit
		t.Fatal(err)
	}
	d := DigestOf(payload)
	if _, err := m.Get(d); err != nil {
		t.Fatal(err)
	}
	snap := o.Metrics.Snapshot()
	if got := snap.Counters["modelstore_puts_total"]; got != 1 {
		t.Errorf("modelstore_puts_total = %d, want 1", got)
	}
	if got := snap.Counters["modelstore_hits_total"]; got != 2 {
		t.Errorf("modelstore_hits_total = %d, want 2 (dedupe + get)", got)
	}
	if got := snap.Gauges["modelstore_bytes"]; got != int64(len(payload)) {
		t.Errorf("modelstore_bytes = %d, want %d", got, len(payload))
	}
}

func randPayload(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(256))
	}
	return out
}

// TestDiskCorruptObjectRecovered: a truncated or overwritten object file
// must read as a miss (os.ErrNotExist), be deleted so the store heals,
// and accept a clean re-Put.
func TestDiskCorruptObjectRecovered(t *testing.T) {
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := randPayload(5, 4096)
	d, err := disk.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(disk.Dir(), d.String()+".bin")
	if err := os.WriteFile(path, payload[:1000], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := disk.Get(d); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt object Get error = %v, want os.ErrNotExist", err)
	}
	if _, statErr := os.Stat(path); !errors.Is(statErr, os.ErrNotExist) {
		t.Fatal("corrupt object file was not deleted")
	}
	if disk.Has(d) {
		t.Fatal("Has still true after corrupt object dropped")
	}
	if _, err := disk.Put(payload); err != nil {
		t.Fatal(err)
	}
	got, err := disk.Get(d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("re-put payload does not round-trip")
	}
}

// TestDiskIgnoresTempFiles: what a killed WriteFileAtomic leaves in a
// store directory is not an object.
func TestDiskIgnoresTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Put([]byte("weights"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, d.String()+".bin.tmp-123"), []byte("half an obj"), 0o644); err != nil {
		t.Fatal(err)
	}
	if ds := s.Digests(); len(ds) != 1 || ds[0] != d {
		t.Fatalf("Digests = %v, want only %s", ds, d)
	}
	if n := s.SizeBytes(); n != int64(len("weights")) {
		t.Fatalf("SizeBytes = %d, want %d", n, len("weights"))
	}
}

// TestWriteFileAtomicFailuresLeaveNoTemp drives the helper's two failure
// points — the temp file cannot be created, the destination cannot be
// replaced — and checks each reports an error and leaves the directory
// as it found it.
func TestWriteFileAtomicFailuresLeaveNoTemp(t *testing.T) {
	dir := t.TempDir()
	notDir := filepath.Join(dir, "file")
	if err := os.WriteFile(notDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(filepath.Join(notDir, "obj.bin"), []byte("data")); err == nil {
		t.Error("write under a path that is not a directory succeeded")
	}

	// A non-empty directory cannot be renamed over.
	dest := filepath.Join(dir, "dest")
	if err := os.MkdirAll(filepath.Join(dest, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(dest, []byte("data")); err == nil {
		t.Error("write over a non-empty directory succeeded")
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "file" && e.Name() != "dest" {
			t.Errorf("failed write left %q behind", e.Name())
		}
	}
}
