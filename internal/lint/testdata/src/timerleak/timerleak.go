// Package timerleak is a lint fixture for the timer-hygiene analyzer:
// time.After in loops, time.Tick in a library, unstopped and discarded
// NewTimer/NewTicker results (including the one-call-deep case of a
// callee that ignores its ticker), the stop/hand-off shapes that must
// stay silent, and a suppressed case.
package timerleak

import "time"

// AfterInLoop starts an unstoppable timer every iteration.
func AfterInLoop(ch chan int, done chan struct{}) {
	for {
		select {
		case <-time.After(time.Second): // want "time.After inside a loop"
			return
		case v := <-ch:
			_ = v
		case <-done:
			return
		}
	}
}

// AfterOnce is fine: a single timer outside any loop.
func AfterOnce() {
	<-time.After(time.Millisecond)
}

// TickLeak uses the unstoppable ticker.
func TickLeak(done chan struct{}) {
	for range time.Tick(time.Millisecond) { // want "time.Tick's ticker can never be stopped"
		select {
		case <-done:
			return
		default:
		}
	}
}

// TimerLeaks never stops the timer and never hands it off.
func TimerLeaks() {
	t := time.NewTimer(time.Second) // want "time.NewTimer result t is never stopped"
	<-t.C
}

// TimerDiscarded cannot be stopped by anyone.
func TimerDiscarded() {
	_ = time.NewTimer(time.Second) // want "result is discarded"
}

// TimerStopped is the canonical shape.
func TimerStopped() {
	t := time.NewTimer(time.Second)
	defer t.Stop()
	<-t.C
}

// TimerReturned hands ownership to the caller.
func TimerReturned() *time.Timer {
	t := time.NewTimer(time.Second)
	return t
}

// stopLater provably stops its parameter; its body says so.
func stopLater(t *time.Ticker) {
	t.Stop()
}

// TickerHanded passes the ticker to a same-package stopper.
func TickerHanded() {
	tk := time.NewTicker(time.Second)
	stopLater(tk)
}

// ignoreTicker provably does nothing with its parameter.
func ignoreTicker(t *time.Ticker) {
	_ = len("noop")
}

// TickerIgnored hands the ticker to a callee that ignores it — still a
// leak, caught by reading the callee's body.
func TickerIgnored() {
	tk := time.NewTicker(time.Second) // want "time.NewTicker result tk is never stopped"
	ignoreTicker(tk)
}

// Suppressed documents why the unstopped timer is intentional.
func Suppressed() {
	//lint:allow timerleak fixture: the unstopped timer is the case under test
	t := time.NewTimer(time.Second)
	go func() { <-t.C }()
}
