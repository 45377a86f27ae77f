// Fixture: mutex discipline — blocking under a held lock, leaked
// locks on return paths, and the legal shapes lockcheck must accept.
package locks

import (
	"sync"
	"time"
)

type client struct{}

func (c *client) Fetch() error { return nil }

type store struct {
	mu   sync.Mutex
	data map[string]int
}

func (s *store) sleepUnderLock() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want `time\.Sleep call while s\.mu is held`
	s.mu.Unlock()
}

func (s *store) fetchUnderLock(c *client) {
	s.mu.Lock()
	_ = c.Fetch() // want `c\.Fetch call while s\.mu is held`
	s.mu.Unlock()
}

func (s *store) sendUnderLock(ch chan int) {
	s.mu.Lock()
	ch <- 1 // want `channel send while s\.mu is held`
	s.mu.Unlock()
}

func (s *store) recvUnderLock(ch chan int) {
	s.mu.Lock()
	v := <-ch // want `channel receive while s\.mu is held`
	_ = v
	s.mu.Unlock()
}

// A multi-return function that locks manually leaks the lock on the
// early return.
func (s *store) leak(cond bool) int {
	s.mu.Lock()
	if cond {
		return 0 // want `return leaves s\.mu locked`
	}
	s.mu.Unlock()
	return 1
}

// defer covers every return path.
func (s *store) deferred(cond bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cond {
		return 0
	}
	return 1
}

// The registered defer also covers a re-acquisition after a
// mid-function unlock/relock dance (the source.Breaker shape).
func (s *store) relock(c *client) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mu.Unlock()
	_ = c.Fetch()
	s.mu.Lock()
	return len(s.data)
}

// Unlocking on the early-return branch is legal without defer.
func (s *store) fastPath(cond bool) int {
	s.mu.Lock()
	if cond {
		s.mu.Unlock()
		return 0
	}
	s.mu.Unlock()
	return 1
}

// A goroutine does not inherit the spawner's locks.
func (s *store) spawn(done chan struct{}) {
	s.mu.Lock()
	go func() {
		<-done
	}()
	s.mu.Unlock()
}

// RWMutex read locks are held to the same rules.
type rw struct {
	mu sync.RWMutex
}

func (r *rw) readLeak(cond bool) int {
	r.mu.RLock()
	if cond {
		return 0 // want `return leaves r\.mu locked`
	}
	r.mu.RUnlock()
	return 1
}

// admit is admission.Limiter.Begin's fast path with the hand-off moved
// under the lock (internal/admission/admission.go). The channel has a
// one-slot buffer, so nothing deadlocks and every test passes, but the
// send runs under l.mu.
type limiter struct {
	mu       sync.Mutex
	inflight int
}

func (l *limiter) admit(admitc chan func(), rel func()) {
	l.mu.Lock()
	l.inflight++
	admitc <- rel // want `channel send while l\.mu is held`
	l.mu.Unlock()
}
