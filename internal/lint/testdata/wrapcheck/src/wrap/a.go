// Fixture: error wrapping at package boundaries — fmt.Errorf must
// carry the cause through %w, not flatten it through %v/%s.
package wrap

import (
	"errors"
	"fmt"
)

var errBase = errors.New("base")

func flatten(err error) error {
	return fmt.Errorf("query failed: %v", err) // want `flattens err without %w`
}

func flattenField(e struct{ lastErr error }) error {
	return fmt.Errorf("sync failed: %v", e.lastErr) // want `flattens e\.lastErr without %w`
}

func flattenString(err error) error {
	return fmt.Errorf("fetch failed: %s", err.Error()) // want `flattens err\.Error\(\.\.\.\) without %w`
}

func wrapped(err error) error {
	return fmt.Errorf("query failed: %w", err)
}

func wrappedWithDetail(err error, n int) error {
	return fmt.Errorf("page %d: %w", n, err)
}

// Non-error operands are free to flatten.
func formatted(n int, s string) error {
	return fmt.Errorf("bad row %d: %v", n, s)
}

// Sentinel construction takes no operand at all.
func sentinel() error {
	return errBase
}

// createDir is store.Open creating its directory with the cause
// flattened (internal/store/db.go): a caller's errors.Is(err,
// fs.ErrPermission) stops matching, and no test asks.
func createDir(dir string, mkdir func(string) error) error {
	if err := mkdir(dir); err != nil {
		return fmt.Errorf("store: creating %s: %v", dir, err) // want `flattens err without %w`
	}
	return nil
}
