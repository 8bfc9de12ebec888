package modelstore

import (
	"container/list"
	"sort"

	"dcsr/internal/obs"
)

// BoundedCache is the client-side micro-model cache of Algorithm 1 with
// a byte budget: labels map to real model payloads, and inserting past
// the budget evicts least-recently-used entries. An evicted label is
// simply absent, so the streaming session's next reference re-fetches
// it lazily — exactly the degraded-then-retry semantics of the fault
// model, driven by capacity instead of failure.
//
// Budget semantics:
//
//   - budget < 0: unbounded — every successful download stays cached
//     (the paper's Algorithm 1, today's default behaviour);
//   - budget == 0: caching disabled — nothing is ever stored (the
//     §3.2.2 no-cache ablation);
//   - budget > 0: entries are evicted LRU-first so the resident bytes
//     never exceed the budget. A single payload larger than the whole
//     budget is refused (nothing useful could be evicted to fit it);
//     the refusal is not an eviction.
//
// A BoundedCache is not safe for concurrent use; it lives inside a
// single-goroutine streaming session (see stream.Session).
type BoundedCache struct {
	budget int64
	bytes  int64
	ll     *list.List            // front = most recently used
	byKey  map[int]*list.Element // label → element; value is *cacheEntry

	// Evictions counts entries removed to make room (mirrors the
	// modelstore_evictions_total counter for callers without a registry).
	Evictions int

	// OnEvict, when set, observes each evicted label (e.g. to drop a
	// deserialized model kept alongside the bytes).
	OnEvict func(label int)

	// Obs receives modelstore_puts_total / modelstore_hits_total /
	// modelstore_evictions_total and the modelstore_bytes gauge; nil
	// disables instrumentation.
	Obs *obs.Obs
}

// NewBoundedCache returns a cache with the given byte budget (see the
// type doc for the <0 / 0 / >0 semantics).
func NewBoundedCache(budget int64) *BoundedCache {
	return &BoundedCache{
		budget: budget,
		ll:     list.New(),
		byKey:  make(map[int]*list.Element),
	}
}

type cacheEntry struct {
	label int
	data  []byte
}

// Bytes returns the resident payload bytes.
func (c *BoundedCache) Bytes() int64 { return c.bytes }

// Len returns the number of cached labels.
func (c *BoundedCache) Len() int { return len(c.byKey) }

// Contains reports whether label is cached without touching recency.
func (c *BoundedCache) Contains(label int) bool {
	_, ok := c.byKey[label]
	return ok
}

// Get returns the cached payload for label and marks it most recently
// used. The second result is false on miss.
func (c *BoundedCache) Get(label int) ([]byte, bool) {
	el, ok := c.byKey[label]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.Obs.Counter("modelstore_hits_total").Inc()
	return el.Value.(*cacheEntry).data, true
}

// Put inserts (or refreshes) label's payload, evicting LRU entries as
// needed, and returns the labels evicted to make room. A payload larger
// than the whole budget (or any payload under a zero budget) is refused:
// nothing is stored and nothing is evicted.
func (c *BoundedCache) Put(label int, data []byte) []int {
	size := int64(len(data))
	if c.budget == 0 || (c.budget > 0 && size > c.budget) {
		return nil
	}
	if el, ok := c.byKey[label]; ok {
		// Refresh: replace the payload and update accounting.
		ent := el.Value.(*cacheEntry)
		c.bytes += size - int64(len(ent.data))
		c.Obs.Gauge("modelstore_bytes").Add(size - int64(len(ent.data)))
		ent.data = data
		c.ll.MoveToFront(el)
	} else {
		c.byKey[label] = c.ll.PushFront(&cacheEntry{label: label, data: data})
		c.bytes += size
		c.Obs.Counter("modelstore_puts_total").Inc()
		c.Obs.Gauge("modelstore_bytes").Add(size)
	}
	var evicted []int
	for c.budget > 0 && c.bytes > c.budget {
		el := c.ll.Back()
		if el == nil || el.Value.(*cacheEntry).label == label {
			break // never evict the entry just inserted
		}
		evicted = append(evicted, c.evict(el))
	}
	return evicted
}

// Remove drops label from the cache (not counted as an eviction).
func (c *BoundedCache) Remove(label int) {
	el, ok := c.byKey[label]
	if !ok {
		return
	}
	ent := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.byKey, ent.label)
	c.bytes -= int64(len(ent.data))
	c.Obs.Gauge("modelstore_bytes").Add(-int64(len(ent.data)))
}

// evict removes the given element, fires OnEvict, and returns its label.
func (c *BoundedCache) evict(el *list.Element) int {
	label := el.Value.(*cacheEntry).label
	c.Remove(label)
	c.Evictions++
	c.Obs.Counter("modelstore_evictions_total").Inc()
	if c.OnEvict != nil {
		c.OnEvict(label)
	}
	return label
}

// Labels returns the cached labels in ascending order.
func (c *BoundedCache) Labels() []int {
	out := make([]int, 0, len(c.byKey))
	for l := range c.byKey {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}
