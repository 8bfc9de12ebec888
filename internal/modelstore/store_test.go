package modelstore

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
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

// objectBytes sums the sizes of the .bin objects in disk's directory:
// the payload bytes the store holds.
func objectBytes(t *testing.T, disk *Disk) int64 {
	t.Helper()
	objs, err := filepath.Glob(filepath.Join(disk.Dir(), "*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, p := range objs {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
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
			got, err := s.Get(d)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("Get = %q, want %q", got, payload)
			}
			if n := objectBytes(t, s); n != int64(len(payload)) {
				t.Fatalf("objects hold %d B, want %d", n, len(payload))
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
			if n := objectBytes(t, s); n != int64(len(payload)) {
				t.Fatalf("objects hold %d B after dedupe, want %d", n, len(payload))
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
	got, err := s2.Get(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "persisted weights" {
		t.Fatalf("reopened Get = %q", got)
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

// TestDiskPutRewritesCorruptObject: a dedupe hit re-hashes the object
// file, so a Put over a flipped copy of its payload repairs it instead of
// vouching for bytes Get would drop.
func TestDiskPutRewritesCorruptObject(t *testing.T) {
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := randPayload(6, 4096)
	d, err := disk.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(payload)
	flipped[100] ^= 1
	if err := os.WriteFile(filepath.Join(disk.Dir(), d.String()+".bin"), flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := disk.Put(payload); err != nil || got != d {
		t.Fatalf("Put over a corrupt object = %s, %v; want %s", got, err, d)
	}
	got, err := disk.Get(d)
	if err != nil {
		t.Fatalf("Get after the repairing Put: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("Get after the repairing Put returned other bytes")
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
	if n := objectBytes(t, s); n != int64(len("weights")) {
		t.Fatalf("objects hold %d B, want %d", n, len("weights"))
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
