package stream

import (
	"reflect"
	"testing"

	"dcsr/internal/edsr"
	"dcsr/internal/obs"
)

func TestModelCacheLRUEviction(t *testing.T) {
	c := newModelCache(100)
	m0 := new(edsr.Model)
	c.put(0, m0, 40, nil)
	c.put(1, nil, 40, nil)
	// Touch label 0 so label 1 becomes the LRU victim.
	if m, ok := c.get(0, nil); !ok || m != m0 {
		t.Fatalf("get(0) = %p, %v; want the cached model", m, ok)
	}
	if evicted := c.put(2, nil, 40, nil); evicted != 1 {
		t.Fatalf("evicted %d, want 1", evicted)
	}
	if got := c.labels(); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("cache contents %v, want [0 2]", got)
	}
	if c.bytes != 80 {
		t.Fatalf("bytes = %d, want 80", c.bytes)
	}
}

func TestModelCacheZeroBudgetStoresNothing(t *testing.T) {
	c := newModelCache(0)
	if evicted := c.put(0, nil, 1, nil); evicted != 0 {
		t.Fatalf("zero-budget put evicted %d", evicted)
	}
	if c.labels() != nil || c.bytes != 0 {
		t.Fatalf("zero-budget cache holds %v / %d bytes", c.labels(), c.bytes)
	}
	if _, ok := c.get(0, nil); ok {
		t.Fatal("zero-budget cache returned a hit")
	}
}

func TestModelCacheOversizedEntryRefused(t *testing.T) {
	c := newModelCache(10)
	c.put(0, nil, 6, nil)
	// An entry charged more than the whole budget is refused outright;
	// the resident entry must survive (evicting it could not make room).
	if evicted := c.put(1, nil, 11, nil); evicted != 0 {
		t.Fatalf("oversized put evicted %d", evicted)
	}
	if got := c.labels(); !reflect.DeepEqual(got, []int{0}) || c.bytes != 6 {
		t.Fatalf("cache contents %v / %d bytes, want [0] / 6", got, c.bytes)
	}
}

func TestModelCacheUnboundedNeverEvicts(t *testing.T) {
	c := newModelCache(-1)
	for i := 0; i < 50; i++ {
		if evicted := c.put(i, nil, 1000, nil); evicted != 0 {
			t.Fatalf("unbounded cache evicted %d", evicted)
		}
	}
	if len(c.labels()) != 50 || c.bytes != 50000 {
		t.Fatalf("unbounded cache holds %d entries / %d bytes", len(c.labels()), c.bytes)
	}
}

func TestModelCacheMultiEviction(t *testing.T) {
	c := newModelCache(100)
	c.put(0, nil, 40, nil)
	c.put(1, nil, 40, nil)
	// 90 bytes fits only alone: both residents must go.
	if evicted := c.put(2, nil, 90, nil); evicted != 2 {
		t.Fatalf("evicted %d, want 2", evicted)
	}
	if got := c.labels(); !reflect.DeepEqual(got, []int{2}) || c.bytes != 90 {
		t.Fatalf("cache contents %v / %d bytes, want [2] / 90", got, c.bytes)
	}
}

func TestModelCacheMetrics(t *testing.T) {
	o := obs.New()
	c := newModelCache(10)
	c.put(0, nil, 6, o)
	if _, ok := c.get(0, o); !ok {
		t.Fatal("miss on resident label")
	}
	c.put(1, nil, 6, o)  // evicts label 0
	c.put(2, nil, 11, o) // refused: neither a put nor an eviction
	snap := o.Metrics.Snapshot()
	if got := snap.Counters["modelstore_puts_total"]; got != 2 {
		t.Errorf("modelstore_puts_total = %d, want 2", got)
	}
	if got := snap.Counters["modelstore_hits_total"]; got != 1 {
		t.Errorf("modelstore_hits_total = %d, want 1", got)
	}
	if got := snap.Counters["modelstore_evictions_total"]; got != 1 {
		t.Errorf("modelstore_evictions_total = %d, want 1", got)
	}
	if got := snap.Gauges["modelstore_bytes"]; got != 6 {
		t.Errorf("modelstore_bytes = %d, want 6", got)
	}
}
