// Fixture: snapshot-handle lifecycle — every PinSnapshot() needs a
// release path (defer, unconditional release, or ownership transfer)
// before any early return.
package snaps

type handle struct{}

func (handle) Release()     {}
func (handle) View() handle { return handle{} }
func (handle) Version() int { return 0 }

type db struct{}

func (db) PinSnapshot() handle { return handle{} }

func consume(h handle) {}

func wrap(h handle) handle { return h }

func deferred(d db) {
	snap := d.PinSnapshot()
	defer snap.Release()
	_ = snap.Version()
}

func deferredClosure(d db) {
	snap := d.PinSnapshot()
	defer func() {
		snap.Release()
	}()
	_ = snap.Version()
}

func pinReadRelease(d db) int {
	snap := d.PinSnapshot()
	v := snap.Version()
	snap.Release()
	return v
}

func errorPathReleases(d db, fail bool) error {
	snap := d.PinSnapshot()
	if fail {
		// The branch that returns also releases: not a leak.
		snap.Release()
		return nil
	}
	snap.Release()
	return nil
}

func transferToCaller(d db) handle {
	snap := d.PinSnapshot()
	return snap
}

func transferToCallee(d db) {
	snap := d.PinSnapshot()
	consume(snap)
}

func transferToClosure(d db) func() {
	snap := d.PinSnapshot()
	return func() { snap.Release() }
}

func transferWrapped(d db) handle {
	snap := d.PinSnapshot()
	return wrap(snap)
}

func reassigned(d db) handle {
	var snap handle
	snap = d.PinSnapshot()
	defer snap.Release()
	return snap.View()
}

func neverReleased(d db) {
	snap := d.PinSnapshot() // want `snapshot snap is never released`
	_ = snap.Version()
}

func discarded(d db) {
	d.PinSnapshot() // want `snapshot pinned and discarded`
}

func discardedBlank(d db) {
	_ = d.PinSnapshot() // want `snapshot pinned and discarded`
}

func leakOnEarlyReturn(d db, fail bool) error {
	snap := d.PinSnapshot() // want `snapshot snap may leak on an early return`
	if fail {
		return nil
	}
	snap.Release()
	return nil
}

func leakOnTopLevelReturn(d db) int {
	snap := d.PinSnapshot() // want `snapshot snap may leak: return before snap.Release`
	v := snap.Version()
	return v
}

func returnsDerivedValue(d db) int {
	// Returning a value derived from the handle is not a transfer:
	// the caller gets an int, nobody holds the pin.
	snap := d.PinSnapshot() // want `snapshot snap may leak: return before snap.Release`
	return snap.Version()
}

func logsDerivedValue(d db) {
	snap := d.PinSnapshot() // want `snapshot snap is never released`
	consumeInt(snap.Version())
}

func consumeInt(int) {}

func conditionalReleaseOnly(d db, ok bool) {
	snap := d.PinSnapshot() // want `snapshot snap is never released`
	if ok {
		snap.Release()
	}
}

// runStmt is query.Engine.Run with a guard placed between the pin and
// its deferred release (internal/query/executor.go): a nil statement
// returns with the version still pinned, and no test passes one.
func runStmt(d db, stmt *int) int {
	snap := d.PinSnapshot() // want `snapshot snap may leak on an early return`
	if stmt == nil {
		return 0
	}
	defer snap.Release()
	return snap.Version() + *stmt
}
