// Package locka holds the two lock classes of the golden cycle. The
// cycle's A.mu → C.mu edge exists only by following the call into
// package lockb and back through its Filler callback — neither
// function of this package acquires both locks directly — which is
// exactly the cross-package propagation lockcheck's lock table exists
// to catch.
package locka

import (
	"sync"
	"time"

	"lockb"
)

type A struct {
	mu    sync.Mutex
	items []int
}

type C struct {
	mu   sync.Mutex
	data []int
}

// One processes under A.mu; lockb.Process calls back into C.Fill,
// which takes C.mu — the hidden A.mu → C.mu edge.
func (a *A) One(c *C) {
	a.mu.Lock()
	defer a.mu.Unlock()
	lockb.Process(c) // want `acquires locka\.C\.mu while locka\.A\.mu is held, creating a lock-order cycle`
}

// Fill implements lockb.Filler.
func (c *C) Fill() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.data = append(c.data, 1)
}

// Drain takes the locks in the opposite order: C.mu, then A.mu via
// LockedOp — the back edge that closes the cycle.
func (c *C) Drain(a *A) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a.LockedOp() // want `acquires locka\.A\.mu while locka\.C\.mu is held, creating a lock-order cycle`
}

func (a *A) LockedOp() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.items = a.items[:0]
}

// Retry backs off under A.mu (the source.Breaker shape with its
// clock): lockb.Pause sleeps, so the call blocks with the lock held.
func (a *A) Retry(c lockb.Clock) {
	a.mu.Lock()
	defer a.mu.Unlock()
	lockb.Pause(c, time.Millisecond) // want `call to lockb\.\.Pause blocks \(channel op or Wait in its call chain\) while locka\.A\.mu is held; release the lock before a channel op, Wait or Sleep`
}
