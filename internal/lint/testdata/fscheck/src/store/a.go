// Fixture: a persistence-path package (path segment "store") doing
// raw os file I/O every way fscheck forbids, plus the os vocabulary
// it must leave alone.
package store

import (
	"os"
)

func persist(dir string) error {
	f, err := os.Create(dir + "/snapshot.tmp") // want `os\.Create bypasses the vfs seam`
	if err != nil {
		return err
	}
	f.Close()
	if _, err := os.Open(dir + "/wal.dtl"); err != nil { // want `os\.Open bypasses the vfs seam`
		return err
	}
	if _, err := os.OpenFile(dir+"/wal.dtl", os.O_CREATE|os.O_APPEND, 0o644); err != nil { // want `os\.OpenFile bypasses the vfs seam`
		return err
	}
	if _, err := os.ReadFile(dir + "/MANIFEST"); err != nil { // want `os\.ReadFile bypasses the vfs seam`
		return err
	}
	if err := os.WriteFile(dir+"/MANIFEST", nil, 0o644); err != nil { // want `os\.WriteFile bypasses the vfs seam`
		return err
	}
	if err := os.Rename(dir+"/snapshot.tmp", dir+"/snapshot"); err != nil { // want `os\.Rename bypasses the vfs seam`
		return err
	}
	os.Remove(dir + "/snapshot.tmp")    // want `os\.Remove bypasses the vfs seam`
	os.RemoveAll(dir)                   // want `os\.RemoveAll bypasses the vfs seam`
	os.MkdirAll(dir, 0o755)             // want `os\.MkdirAll bypasses the vfs seam`
	if _, err := os.MkdirTemp("", "shards-"); err != nil { // want `os\.MkdirTemp bypasses the vfs seam`
		return err
	}
	if _, err := os.ReadDir(dir); err != nil { // want `os\.ReadDir bypasses the vfs seam`
		return err
	}
	if _, err := os.Stat(dir); err != nil { // want `os\.Stat bypasses the vfs seam`
		return err
	}
	return os.Truncate(dir+"/wal.dtl", 0) // want `os\.Truncate bypasses the vfs seam`
}

// The allowed vocabulary: error predicates and flag constants are not
// file I/O.
func classify(err error) (bool, int) {
	return os.IsNotExist(err), os.O_CREATE | os.O_WRONLY
}

// abandonCheckpoint is DB.Checkpoint's cleanup after a failed snapshot
// fsync with the temp file removed through os instead of the seam
// (internal/store/db.go). Under the fault injector the removal misses
// the in-memory file and its error is dropped, so no test fails.
func abandonCheckpoint(tmp string, sync func() error) error {
	if err := sync(); err != nil {
		os.Remove(tmp) // want `os\.Remove bypasses the vfs seam`
		return err
	}
	return nil
}
