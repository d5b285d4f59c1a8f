// Package locks is a golden fixture for the lock-discipline analyzer:
// blocking operations under a held mutex and returns that leak a lock, next
// to the legal shapes the runtime uses.
package locks

import "sync"

type producer struct{}

func (producer) Produce(v int) error { return nil }

type guarded struct {
	mu   sync.Mutex
	n    int
	vals []int
}

// ---- rule 1: blocking operations under a held lock ----

func blockingUnderLock(g *guarded, p producer, ch chan int) {
	g.mu.Lock()
	ch <- 1  // want `channel send while g\.mu is held`
	<-ch     // want `channel receive while g\.mu is held`
	select { // want `blocking select while g\.mu is held`
	case v := <-ch:
		g.n = v
	}
	_ = p.Produce(g.n) // want `calls p\.Produce while g\.mu is held`
	g.mu.Unlock()
	// Unlocked again: the same operations are legal now.
	ch <- 2
	_ = p.Produce(g.n)
}

func legalUnderLock(g *guarded, ch chan int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	// A select with a default never parks the goroutine.
	select {
	case v := <-ch:
		g.n = v
	default:
	}
}

// snapshotThenSend is the prescribed shape: copy under the lock, operate after.
func snapshotThenSend(g *guarded, p producer) error {
	g.mu.Lock()
	n := g.n
	g.mu.Unlock()
	return p.Produce(n)
}

// ---- rule 2: returns that leak the lock ----

func leakyReturn(g *guarded, stop bool) int {
	g.mu.Lock()
	if stop {
		return 0 // want `returns while g\.mu is locked with no defer g\.mu\.Unlock\(\)`
	}
	g.mu.Unlock()
	return g.n
}

func deferredReturn(g *guarded, stop bool) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if stop {
		return 0
	}
	return g.n
}

func unlockEveryPath(g *guarded, stop bool) int {
	g.mu.Lock()
	if stop {
		g.mu.Unlock()
		return 0
	}
	n := g.n
	g.mu.Unlock()
	return n
}

func suppressedLeak(g *guarded) int {
	g.mu.Lock()
	//samzasql:ignore lock-discipline -- caller unlocks via guarded.release in the same commit section
	return g.n // want-suppressed `returns while g\.mu is locked`
}
