package stream

import (
	"container/list"
	"sort"

	"dcsr/internal/edsr"
	"dcsr/internal/obs"
)

// modelCache is a session's micro-model cache (Algorithm 1's record of
// downloaded labels) under a byte budget: label → model, each entry
// charged the size of the payload it came from (Assembler.Model's
// charge). Inserting past the budget evicts least-recently-used entries;
// an evicted label is simply absent, so its next reference re-fetches it
// lazily — the degraded-then-retry path of the fault model, driven by
// capacity instead of failure.
//
// The budget is Options.CacheBudget: < 0 unbounded (Algorithm 1), 0
// nothing is cached (the §3.2.2 ablation), > 0 LRU eviction so the
// charged bytes never exceed it. An entry larger than the whole budget is
// refused, which is not an eviction. Each call records the stable
// modelstore_puts_total / modelstore_hits_total /
// modelstore_evictions_total counters and the modelstore_bytes gauge
// (docs/OPERATIONS.md) on the Obs it is given. A modelCache is not safe
// for concurrent use; it lives inside one single-goroutine Session.
type modelCache struct {
	budget, bytes int64
	ll            list.List // front = most recently used; values are *cacheEntry
	byLabel       map[int]*list.Element
}

type cacheEntry struct {
	label  int
	model  *edsr.Model // nil in an accounting-only session
	charge int64
}

func newModelCache(budget int64) *modelCache {
	return &modelCache{budget: budget, byLabel: make(map[int]*list.Element)}
}

// get returns label's model and marks it most recently used; the second
// result is false on miss.
func (c *modelCache) get(label int, o *obs.Obs) (*edsr.Model, bool) {
	el, ok := c.byLabel[label]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	o.Counter("modelstore_hits_total").Inc()
	return el.Value.(*cacheEntry).model, true
}

// put caches model m under label, which must be absent, charged charge
// bytes, and returns how many entries it evicted to make room. An entry
// the budget cannot hold is refused: nothing is stored or evicted.
func (c *modelCache) put(label int, m *edsr.Model, charge int, o *obs.Obs) (evicted int) {
	size := int64(charge)
	if c.budget == 0 || (c.budget > 0 && size > c.budget) {
		return 0
	}
	c.byLabel[label] = c.ll.PushFront(&cacheEntry{label: label, model: m, charge: size})
	c.bytes += size
	o.Counter("modelstore_puts_total").Inc()
	o.Gauge("modelstore_bytes").Add(size)
	// The new entry fits the budget alone, so it is never the victim.
	for c.budget > 0 && c.bytes > c.budget {
		e := c.ll.Remove(c.ll.Back()).(*cacheEntry)
		delete(c.byLabel, e.label)
		c.bytes -= e.charge
		evicted++
		o.Counter("modelstore_evictions_total").Inc()
		o.Gauge("modelstore_bytes").Add(-e.charge)
	}
	return evicted
}

// labels returns the cached labels in ascending order, nil when none.
func (c *modelCache) labels() []int {
	var out []int
	for l := range c.byLabel {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}
