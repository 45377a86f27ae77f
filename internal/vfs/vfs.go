// Package vfs is the filesystem seam every DrugTree persistence path
// goes through: the store's WAL and snapshots, the only durable state,
// do file I/O against the FS interface instead of the os package. In
// production the seam is a zero-cost passthrough to os (OS()); under
// test it is a deterministic fault injector (FaultFS) that can tear
// writes, exhaust the disk, fail fsyncs, flip bits on read, and — the
// centerpiece — cut power at any chosen operation, discarding
// everything that was never fsynced, so a torture harness can
// enumerate every crash point in a workload and prove the recovery
// invariants at each one (store.TestTortureMatrix).
//
// The crash model is strict POSIX: a write is durable only after a
// successful Sync of the file, and a namespace operation (create,
// rename, remove) is durable only after a successful SyncDir of the
// parent directory. File-content fsync does NOT persist the file's
// directory entry — code that creates or renames a file and needs it
// to survive a crash must sync the directory, which is exactly the
// discipline the fscheck-gated packages follow.
package vfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is one open file handle behind the seam. It is the subset of
// *os.File the persistence layers use.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	io.Seeker
	// Sync flushes the file's content to durable storage. It does not
	// make the file's directory entry durable — see FS.SyncDir.
	Sync() error
	// Truncate changes the file's size. Like writes, the truncation is
	// durable only after Sync.
	Truncate(size int64) error
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem seam. Paths follow os semantics (cleaned
// internally); FileMode values are advisory under FaultFS.
type FS interface {
	// OpenFile is the general open (os.OpenFile semantics for the
	// O_RDONLY/O_WRONLY/O_RDWR/O_CREATE/O_APPEND/O_TRUNC flags the
	// store uses).
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// Open opens for reading (os.Open).
	Open(name string) (File, error)
	// Create truncate-creates for writing (os.Create).
	Create(name string) (File, error)
	// ReadFile reads a whole file (os.ReadFile).
	ReadFile(name string) ([]byte, error)
	// Remove deletes one file (os.Remove).
	Remove(name string) error
	// Rename atomically replaces newpath with oldpath (os.Rename).
	// Durability of the new entry requires SyncDir on the parent.
	Rename(oldpath, newpath string) error
	// MkdirAll creates a directory chain (os.MkdirAll).
	MkdirAll(path string, perm fs.FileMode) error
	// Stat describes a file (os.Stat).
	Stat(name string) (fs.FileInfo, error)
	// ReadDir lists a directory (os.ReadDir).
	ReadDir(name string) ([]fs.DirEntry, error)
	// SyncDir fsyncs the directory itself, making the entries it
	// holds (creations, renames, removals) durable. Rename-based
	// atomic replacement is complete only after this returns nil.
	SyncDir(name string) error
}

// OS returns the passthrough FS over the real filesystem.
func OS() FS { return osFS{} }

// osFS forwards every call to the os package. SyncDir opens the
// directory and fsyncs the handle, which is how rename durability is
// obtained on POSIX systems.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Open(name string) (File, error)               { return os.Open(name) }
func (osFS) Create(name string) (File, error)             { return os.Create(name) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }

func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	// Some filesystems refuse fsync on directories; a refusal means
	// the platform offers no stronger guarantee, not that the caller
	// did anything wrong, so only real failures propagate.
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil && (errors.Is(err, errors.ErrUnsupported) || errors.Is(err, os.ErrInvalid)) {
		return nil
	}
	return err
}

// parentDir returns the cleaned parent directory of path.
func parentDir(path string) string { return filepath.Dir(filepath.Clean(path)) }

// NoDirSync wraps fsys so SyncDir is a silent no-op — the "reverted
// dir-fsync bug" switch. The torture harness's meta-test runs its
// workloads over this wrapper to prove the harness catches the
// rename-durability bugs the real code fixed: with directory syncs
// dropped, a crash after an atomic rename (or after the WAL file's
// creation) loses the entry and the invariant checker must report it.
func NoDirSync(fsys FS) FS { return noDirSyncFS{fsys} }

type noDirSyncFS struct{ FS }

func (noDirSyncFS) SyncDir(string) error { return nil }
