package lint

import (
	"testing"

	"drugtree/internal/lint/analysistest"
)

// The golden tests below run each analyzer over its fixture tree and
// match diagnostics against the fixtures' `// want` comments — both
// directions: an unexpected diagnostic and an unmet expectation each
// fail the test.

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

func TestLockCheck(t *testing.T) {
	analysistest.Run(t, "testdata/lockcheck", LockCheck, "locks")
}

// TestLockOrder runs the fixture packages in one pass so the fact
// tables merge: the A.mu → C.mu edge exists only by following
// locka.A.One's call into lockb and back out through the Filler
// callback — neither package exhibits a cycle alone. lockstore is the
// store's DB.mu → Table.mu order with one call path inverted.
func TestLockOrder(t *testing.T) {
	analysistest.Run(t, "testdata/lockorder", LockOrder, "locka", "lockb", "lockstore")
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
