// Package lockorder is a lint fixture for the lock-order analyzer: an
// ABBA cycle (one hop through a callee's body), leaks on return paths,
// the balanced/deferred/helper release idioms that must stay silent (one
// unlock helper on three paths), and a suppressed hand-off case.
package lockorder

import "sync"

type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

type R struct{ mu sync.RWMutex }

type G struct{ mu sync.Mutex }

// Reversed takes B.mu before A.mu — the opposite of Propagated's order —
// closing the cycle. The diagnostic lands on the earliest witness edge.
func Reversed(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock() // want "inconsistent lock acquisition order forms a cycle"
	a.mu.Unlock()
	b.mu.Unlock()
}

// poke acquires B.mu; callers read that from its body.
func (b *B) poke() {
	b.mu.Lock()
	b.mu.Unlock()
}

// Propagated contributes the A.mu→B.mu edge one call level deep: it
// holds A.mu across b.poke(), whose body acquires B.mu.
func Propagated(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.poke()
}

// Leaky returns early while still holding the lock.
func Leaky(a *A, fail bool) bool {
	a.mu.Lock() // want "Lock of A.mu is not released on every return path"
	if fail {
		return false
	}
	a.mu.Unlock()
	return true
}

// LeakyRead does the same with a read lock.
func LeakyRead(r *R, fail bool) bool {
	r.mu.RLock() // want "RLock of R.mu is not released on every return path"
	if fail {
		return false
	}
	r.mu.RUnlock()
	return true
}

// Balanced unlocks on both arms of the branch; the intersection merge
// must understand this.
func Balanced(a *A, ready bool) {
	a.mu.Lock()
	if ready {
		a.mu.Unlock()
		return
	}
	a.mu.Unlock()
}

// DeferRelease covers every return with one defer.
func DeferRelease(a *A, n int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n > 0 {
		return n
	}
	return -n
}

// unlock releases a lock its caller holds — the unlock-helper idiom: a
// release of a class the body never acquired.
func (g *G) unlock() { g.mu.Unlock() }

// Helper releases through the deferred helper; no leak.
func Helper(g *G) {
	g.mu.Lock()
	defer g.unlock()
}

// HelperDirect calls the same helper Helper defers; no leak.
func HelperDirect(g *G) {
	g.mu.Lock()
	g.unlock()
}

// HelperOneArm releases through the helper on one path only: the
// helper's body, read once, applies where it is called and nowhere else.
func HelperOneArm(g *G, fail bool) bool {
	g.mu.Lock() // want "Lock of G.mu is not released on every return path"
	if fail {
		g.unlock()
		return false
	}
	return true
}

// ClosureRelease unlocks inside a deferred closure; no leak.
func ClosureRelease(a *A) {
	a.mu.Lock()
	defer func() {
		a.mu.Unlock()
	}()
}

// LockHandoff intentionally returns holding the lock; the contract is
// documented at the suppression.
func LockHandoff(a *A) {
	//lint:allow lockorder the caller contractually unlocks; the hand-off idiom is the case under test
	a.mu.Lock()
}
