package main

import (
	"runtime"
	"sort"
	"time"
)

// sample is a set of measurements of one quantity.
type sample []float64

func (s sample) sorted() []float64 {
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	return v
}

// quantile interpolates linearly between order statistics; q in [0,1].
func (s sample) quantile(q float64) float64 {
	v := s.sorted()
	if len(v) == 0 {
		return 0
	}
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo >= len(v)-1 {
		return v[len(v)-1]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}

func (s sample) median() float64 { return s.quantile(0.5) }

func (s sample) min() float64 { return s.quantile(0) }

func (s sample) sum() float64 {
	var t float64
	for _, x := range s {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// timeN runs fn n times and returns each run's wall time in ms.
func timeN(n int, fn func()) sample {
	out := make(sample, n)
	for i := range out {
		t := time.Now()
		fn()
		out[i] = ms(time.Since(t))
	}
	return out
}

// timeOnce is one run of fn, in ms: whole-frame inference is too dear
// to repeat inside a run.
func timeOnce(fn func()) float64 { return timeN(1, fn)[0] }

// timeErrN is timeN for calls that can fail; it stops at the first error.
func timeErrN(n int, fn func() error) (sample, error) {
	var err error
	s := timeN(n, func() {
		if err == nil {
			err = fn()
		}
	})
	return s, err
}

// allocatedMB is the heap the process has allocated so far, live or
// collected. Its growth over an operation is that operation's memory
// churn; unlike peak RSS it does not depend on when the collector ran.
func allocatedMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / (1 << 20)
}
