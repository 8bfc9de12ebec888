package obs

import (
	"sync/atomic"
	"time"
)

// Every Counter and Histogram also records into a rolling window, which
// answers the question a lifetime value cannot: "what is the rate / p99
// *right now*?" A lifetime p99 is frozen by history — a 30-second
// overload event is invisible inside a p99 computed since process start.
//
// The window is a fixed ring of sub-window slots, each covering
// Window/windowSlots of wall time. Recording locates the current slot
// from the clock, lazily resets it when it has rotated into a new
// sub-window (a CAS elects one resetter; no locks, no allocation), and
// updates atomic counts. Snapshots merge every slot still inside the
// window. Observations racing a rotation may be attributed to either
// adjacent sub-window — window values are operational telemetry, not
// accounting, and the lifetime values remain exact.

// Rolling-window geometry: 30 s of history in 3 s sub-windows, matched
// to the overload events an operator of a serving fleet cares about.
const (
	Window      = 30 * time.Second
	windowSlots = 10
	slotNanos   = int64(Window / windowSlots)
)

// windowSlot is one sub-window. seq identifies which rotation the
// slot's contents belong to; a slot whose seq has fallen out of the
// window is expired (and is reset on its next use).
type windowSlot struct {
	seq     atomic.Int64
	count   atomic.Int64
	buckets []atomic.Int64 // a histogram's bucket counts; nil on a counter
}

// window is the rolling record a Counter or Histogram keeps beside its
// lifetime values. The zero value is ready for a counter; a histogram
// gives each slot its buckets.
type window struct {
	clock func() time.Time // test hook; nil means time.Now
	slots [windowSlots]windowSlot
}

func (w *window) now() int64 {
	if w.clock != nil {
		return w.clock().UnixNano()
	}
	return time.Now().UnixNano()
}

// slot returns the current sub-window's slot, electing one caller to
// clear it when it still holds an older sub-window. Allocation-free.
func (w *window) slot() *windowSlot {
	seq := w.now() / slotNanos
	s := &w.slots[seq%windowSlots]
	if old := s.seq.Load(); old != seq && s.seq.CompareAndSwap(old, seq) {
		s.count.Store(0)
		for i := range s.buckets {
			s.buckets[i].Store(0)
		}
	}
	return s
}

// merge returns the count of the sub-windows still inside the window,
// adding their bucket counts into buckets (nil for a counter).
func (w *window) merge(buckets []int64) (count int64) {
	cur := w.now() / slotNanos
	for i := range w.slots {
		s := &w.slots[i]
		if seq := s.seq.Load(); seq > cur-windowSlots && seq <= cur {
			count += s.count.Load()
			for b := range buckets {
				buckets[b] += s.buckets[b].Load()
			}
		}
	}
	return count
}

// rate converts a window count to events per second.
func rate(count int64) float64 { return float64(count) / Window.Seconds() }
