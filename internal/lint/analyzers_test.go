package lint

import (
	"testing"

	"drugtree/internal/lint/analysistest"
)

// The golden tests below run each analyzer over its fixture tree and
// match diagnostics against the fixtures' `// want` comments — both
// directions: an unexpected diagnostic and an unmet expectation each
// fail the test.

func TestAtomicCheck(t *testing.T) {
	analysistest.Run(t, "testdata/atomiccheck", AtomicCheck, "atomics", "atomreader")
}

func TestClockCheck(t *testing.T) {
	analysistest.Run(t, "testdata/clockcheck", ClockCheck,
		"experiments", "internal/netsim", "other")
}

func TestCtxCheck(t *testing.T) {
	analysistest.Run(t, "testdata/ctxcheck", CtxCheck,
		"source", "cmd/tool", "admission", "batch")
}

func TestErrCmp(t *testing.T) {
	analysistest.Run(t, "testdata/errcmp", ErrCmp, "errw")
}

func TestFSCheck(t *testing.T) {
	analysistest.Run(t, "testdata/fscheck", FSCheck, "store", "other")
}

// TestErrCmpNoWrapIsSilent analyzes the nowrap fixture alone: with no
// wraps: fact in its table, raw sentinel identity is legal and the
// package's == comparison goes unflagged. The identical syntax inside
// errw IS flagged — the diagnostic hinges on the cross-package fact,
// not the comparison's shape.
func TestErrCmpNoWrapIsSilent(t *testing.T) {
	analysistest.Run(t, "testdata/errcmp", ErrCmp, "nowrap")
}

func TestLockCheck(t *testing.T) {
	analysistest.Run(t, "testdata/lockcheck", LockCheck, "locks")
}

// TestLockOrder runs the two fixture packages in one pass so the fact
// tables merge: the A.mu → C.mu edge exists only by following
// locka.A.One's call into lockb and back out through the Filler
// callback — neither package exhibits a cycle alone.
func TestLockOrder(t *testing.T) {
	analysistest.Run(t, "testdata/lockorder", LockOrder, "locka", "lockb")
}

func TestSendCheck(t *testing.T) {
	analysistest.Run(t, "testdata/sendcheck", SendCheck, "sends")
}

func TestSnapCheck(t *testing.T) {
	analysistest.Run(t, "testdata/snapcheck", SnapCheck, "snaps")
}

func TestSpawnCheck(t *testing.T) {
	analysistest.Run(t, "testdata/spawncheck", SpawnCheck, "spawn")
}

func TestWrapCheck(t *testing.T) {
	analysistest.Run(t, "testdata/wrapcheck", WrapCheck, "wrap")
}
