// Fixture: a package outside the persistence set (no store path
// segment) may use raw os file I/O freely — command mains, examples,
// and the lint tree itself are not fault-injected.
package other

import "os"

func fine(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(dir + "/report.txt")
	if err != nil {
		return err
	}
	return f.Close()
}
