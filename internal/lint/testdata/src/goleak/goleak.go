// Package goleak is a lint fixture for the goroutine-join analyzer:
// opaque and unjoined launches, method-value goroutines resolved to
// their same-package declarations, each accepted completion signal, and
// a suppressed case.
package goleak

import (
	"os"
	"sync"
)

func work() {}

// Unsignaled is a named same-package function with no completion
// signal: launching it by name is resolvable — and reportable.
func Unsignaled() {
	go work() // want "goroutine work has no visible completion signal"
}

// Opaque launches a goroutine whose body really is out of sight: a
// function from another package.
func Opaque() {
	go os.Exit(0) // want "not visible here"
}

// Unjoined has no completion signal at all.
func Unjoined() {
	go func() { // want "no visible completion signal"
		work()
	}()
}

// server models the mux dispatch idiom: a per-request method goroutine
// that joins through the WaitGroup it is handed.
type server struct {
	wg sync.WaitGroup
}

// serveRequest carries its own completion signal, so launching it as a
// method goroutine is fine.
func (s *server) serveRequest(req int) {
	defer s.wg.Done()
	_ = req
}

// leakyRequest has no signal; the launch site is charged.
func (s *server) leakyRequest(req int) {
	_ = req
}

// Dispatch launches method-value goroutines; the analyzer reads the
// named methods' bodies.
func (s *server) Dispatch() {
	s.wg.Add(1)
	go s.serveRequest(1)
	go s.leakyRequest(2) // want "goroutine .*leakyRequest has no visible completion signal"
}

// WaitGrouped signals through wg.Done.
func WaitGrouped(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
}

// ChannelSend signals by delivering its result.
func ChannelSend() <-chan int {
	ch := make(chan int, 1)
	go func() {
		ch <- 1
	}()
	return ch
}

// Closes signals by closing the done channel.
func Closes() <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		work()
	}()
	return done
}

// Suppressed documents why the goroutine is not joined.
func Suppressed() {
	//lint:allow goleak fixture: the unjoined goroutine is the case under test
	go func() { work() }()
}
