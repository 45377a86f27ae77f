package vfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Errors surfaced by injected faults. Every persistence layer treats
// them like their real counterparts: ErrNoSpace like ENOSPC,
// ErrSyncFailed like a failed fsync (after which the kernel has
// dropped the dirty pages — fsyncgate semantics), ErrCrashed like a
// power cut (every subsequent I/O fails until Reboot).
var (
	ErrCrashed    = errors.New("vfs: simulated power failure")
	ErrNoSpace    = errors.New("vfs: no space left on device (injected)")
	ErrSyncFailed = errors.New("vfs: fsync failed (injected)")
)

// OpKind classifies one FaultFS operation for the injector.
type OpKind int

const (
	// OpWrite is a file write (crash-eligible; a crash mid-write
	// persists a seeded prefix — the torn-write-at-power-cut case).
	OpWrite OpKind = iota
	// OpSync is a file fsync.
	OpSync
	// OpSyncDir is a directory fsync (entry durability barrier).
	OpSyncDir
	// OpCreate is a file creation (Create, or OpenFile with O_CREATE
	// when the file does not exist).
	OpCreate
	// OpRename is a rename.
	OpRename
	// OpRemove is a file or tree removal.
	OpRemove
	// OpTruncate is a file truncation.
	OpTruncate
	// OpRead is a read (bit-flip eligible; never a crash point, so it
	// does not advance the mutation counter).
	OpRead
)

func (k OpKind) String() string {
	switch k {
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpSyncDir:
		return "syncdir"
	case OpCreate:
		return "create"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpTruncate:
		return "truncate"
	case OpRead:
		return "read"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Op identifies one fault-eligible operation. N is the 1-based index
// of the operation among mutating operations (OpRead carries the
// index of the last mutation): "crash at point k" means the injector
// returns FaultCrash when op.N == k and op.Kind != OpRead.
type Op struct {
	N    int
	Kind OpKind
	Path string
}

// Fault is the injector's verdict for one operation.
type Fault int

const (
	// FaultNone lets the operation through.
	FaultNone Fault = iota
	// FaultCrash cuts power at this operation: a write persists a
	// seeded prefix first (torn write at the crash frontier), any
	// other operation simply never happens, and every subsequent
	// operation fails with ErrCrashed until Reboot. Only what was
	// fsynced — file content via Sync, directory entries via SyncDir —
	// survives the reboot.
	FaultCrash
	// FaultENOSPC fails a write with ErrNoSpace after persisting a
	// seeded prefix (a partial write followed by disk exhaustion).
	FaultENOSPC
	// FaultTorn short-writes: a seeded prefix lands, io.ErrShortWrite
	// returns, and the filesystem stays up.
	FaultTorn
	// FaultSyncFail fails an fsync and drops the unsynced delta (the
	// kernel marked the dirty pages clean despite the error —
	// fsyncgate), so retrying the sync cannot recover the data.
	FaultSyncFail
	// FaultBitFlip flips one seeded bit in the data returned by a
	// read, modelling silent media corruption detected only by
	// checksums.
	FaultBitFlip
)

// Injector decides the fault for each operation. A nil injector means
// no faults. Injectors run under the filesystem lock: they must not
// call back into the FaultFS.
type Injector func(op Op) Fault

// inode is one file's content: data is what reads observe, synced is
// what survives a crash.
type inode struct {
	data   []byte
	synced []byte
}

// FaultFS is a deterministic in-memory filesystem with scriptable
// faults and power-cut simulation. The zero value is not usable; use
// NewFault. All methods are safe for concurrent use.
type FaultFS struct {
	mu      sync.Mutex
	rng     *rand.Rand
	inj     Injector
	muts    int
	crashed bool
	// cur is the live namespace; durable is the namespace as of each
	// directory's last successful SyncDir. Directories themselves are
	// durable on creation (a deliberate simplification: the crash
	// model never un-creates a directory, only file entries).
	cur     map[string]*inode
	durable map[string]*inode
	dirs    map[string]bool
}

// NewFault returns an empty FaultFS. The seed drives every
// random-looking choice (torn-write prefix lengths, flipped bits), so
// a (seed, injector) pair replays identically.
func NewFault(seed int64) *FaultFS {
	return &FaultFS{
		rng:     rand.New(rand.NewSource(seed)),
		cur:     make(map[string]*inode),
		durable: make(map[string]*inode),
		dirs:    map[string]bool{".": true, "/": true},
	}
}

// SetInjector installs the fault script (nil clears it).
func (f *FaultFS) SetInjector(inj Injector) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.inj = inj
}

// MutOps returns how many mutating operations have been issued — the
// number of crash points a workload exposed during a fault-free dry
// run.
func (f *FaultFS) MutOps() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.muts
}

// Crashed reports whether an injected crash has cut power.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Reboot models the machine coming back after a crash: every file
// reverts to its last-synced content, every directory entry to its
// last SyncDir'd state, and I/O works again. Open handles from before
// the crash stay dead (their operations keep failing until the owner
// reopens through the namespace). Reboot is also safe to call without
// a prior crash, where it discards all unsynced state the same way.
func (f *FaultFS) Reboot() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed = false
	f.cur = make(map[string]*inode, len(f.durable))
	for p, ino := range f.durable {
		ino.data = append([]byte(nil), ino.synced...)
		f.cur[p] = ino
	}
}

// Corrupt XORs mask into the byte at off of path's content, in both
// the live and the durable image — persistent media corruption, as
// opposed to the transient FaultBitFlip read fault. Used by scrub
// tests to damage a snapshot or WAL at rest.
func (f *FaultFS) Corrupt(path string, off int, mask byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	ino, ok := f.cur[filepath.Clean(path)]
	if !ok {
		return &fs.PathError{Op: "corrupt", Path: path, Err: fs.ErrNotExist}
	}
	if off < 0 || off >= len(ino.data) {
		return fmt.Errorf("vfs: corrupt offset %d outside %s (%d bytes)", off, path, len(ino.data))
	}
	ino.data[off] ^= mask
	if off < len(ino.synced) {
		ino.synced[off] ^= mask
	}
	return nil
}

// DurableLen returns the size of path's crash-surviving content and
// whether its entry itself would survive (test introspection).
func (f *FaultFS) DurableLen(path string) (int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ino, ok := f.durable[filepath.Clean(path)]
	if !ok {
		return 0, false
	}
	return len(ino.synced), true
}

// step consults the injector for one operation. It must be called
// with f.mu held. For mutating kinds it advances the crash-point
// counter; FaultCrash marks the filesystem crashed (the caller
// applies any partial effect first).
func (f *FaultFS) step(kind OpKind, path string) (Fault, error) {
	if f.crashed {
		return FaultNone, ErrCrashed
	}
	if kind != OpRead {
		f.muts++
	}
	if f.inj == nil {
		return FaultNone, nil
	}
	fault := f.inj(Op{N: f.muts, Kind: kind, Path: path})
	if fault == FaultCrash {
		f.crashed = true
	}
	return fault, nil
}

// tornLen picks how many of n bytes a torn write persists: 0..n-1,
// seeded.
func (f *FaultFS) tornLen(n int) int {
	if n == 0 {
		return 0
	}
	return f.rng.Intn(n)
}

func (f *FaultFS) lookup(path string) (*inode, bool) {
	ino, ok := f.cur[filepath.Clean(path)]
	return ino, ok
}

func notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

// --- FS interface ---

func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	p := filepath.Clean(name)
	ino, exists := f.lookup(p)
	if !exists {
		if flag&os.O_CREATE == 0 {
			return nil, notExist("open", name)
		}
		fault, err := f.step(OpCreate, p)
		if err != nil {
			return nil, err
		}
		if fault == FaultCrash {
			return nil, ErrCrashed
		}
		ino = &inode{}
		f.cur[p] = ino
	} else if flag&os.O_TRUNC != 0 {
		fault, err := f.step(OpTruncate, p)
		if err != nil {
			return nil, err
		}
		if fault == FaultCrash {
			return nil, ErrCrashed
		}
		ino.data = nil
	}
	return &faultFile{fs: f, path: p, ino: ino, flag: flag}, nil
}

func (f *FaultFS) Open(name string) (File, error) {
	return f.OpenFile(name, 0, 0)
}

func (f *FaultFS) Create(name string) (File, error) {
	return f.OpenFile(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	ino, ok := f.lookup(name)
	if !ok {
		return nil, notExist("open", name)
	}
	out := append([]byte(nil), ino.data...)
	fault, err := f.step(OpRead, filepath.Clean(name))
	if err != nil {
		return nil, err
	}
	if fault == FaultBitFlip && len(out) > 0 {
		out[f.rng.Intn(len(out))] ^= 1 << f.rng.Intn(8)
	}
	return out, nil
}

func (f *FaultFS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := filepath.Clean(name)
	if _, ok := f.cur[p]; !ok {
		if f.crashed {
			return ErrCrashed
		}
		return notExist("remove", name)
	}
	fault, err := f.step(OpRemove, p)
	if err != nil {
		return err
	}
	if fault == FaultCrash {
		return ErrCrashed
	}
	delete(f.cur, p)
	return nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	op, np := filepath.Clean(oldpath), filepath.Clean(newpath)
	fault, err := f.step(OpRename, np)
	if err != nil {
		return err
	}
	if fault == FaultCrash {
		return ErrCrashed
	}
	if ino, ok := f.cur[op]; ok {
		f.cur[np] = ino
		delete(f.cur, op)
		return nil
	}
	return notExist("rename", oldpath)
}

func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	p := filepath.Clean(path)
	for {
		f.dirs[p] = true
		parent := filepath.Dir(p)
		if parent == p {
			break
		}
		p = parent
	}
	return nil
}

func (f *FaultFS) Stat(name string) (fs.FileInfo, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	p := filepath.Clean(name)
	if ino, ok := f.cur[p]; ok {
		return fileInfo{name: filepath.Base(p), size: int64(len(ino.data))}, nil
	}
	if f.dirs[p] {
		return fileInfo{name: filepath.Base(p), dir: true}, nil
	}
	return nil, notExist("stat", name)
}

func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	p := filepath.Clean(name)
	if !f.dirs[p] {
		return nil, notExist("open", name)
	}
	prefix := p + string(filepath.Separator)
	seen := make(map[string]fs.DirEntry)
	for q, ino := range f.cur {
		if !strings.HasPrefix(q, prefix) {
			continue
		}
		rest := q[len(prefix):]
		if i := strings.IndexByte(rest, filepath.Separator); i >= 0 {
			continue // deeper than one level; the subdir entry covers it
		}
		seen[rest] = dirEntry{fileInfo{name: rest, size: int64(len(ino.data))}}
	}
	for d := range f.dirs {
		if !strings.HasPrefix(d, prefix) {
			continue
		}
		rest := d[len(prefix):]
		if rest == "" || strings.ContainsRune(rest, filepath.Separator) {
			continue
		}
		seen[rest] = dirEntry{fileInfo{name: rest, dir: true}}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]fs.DirEntry, len(names))
	for i, n := range names {
		out[i] = seen[n]
	}
	return out, nil
}

func (f *FaultFS) SyncDir(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := filepath.Clean(name)
	fault, err := f.step(OpSyncDir, p)
	if err != nil {
		return err
	}
	switch fault {
	case FaultCrash:
		return ErrCrashed
	case FaultSyncFail:
		return fmt.Errorf("syncdir %s: %w", name, ErrSyncFailed)
	}
	// Commit this directory's namespace: its current direct entries
	// become the durable ones, entries removed since the last sync
	// disappear from the durable view.
	prefix := p + string(filepath.Separator)
	direct := func(q string) bool {
		return strings.HasPrefix(q, prefix) && !strings.ContainsRune(q[len(prefix):], filepath.Separator)
	}
	for q := range f.durable {
		if direct(q) {
			if _, still := f.cur[q]; !still {
				delete(f.durable, q)
			}
		}
	}
	for q, ino := range f.cur {
		if direct(q) {
			f.durable[q] = ino
		}
	}
	return nil
}

// --- file handle ---

type faultFile struct {
	fs   *FaultFS
	path string
	ino  *inode
	off  int64
	flag int
}

func (h *faultFile) Name() string { return h.path }

func (h *faultFile) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return 0, ErrCrashed
	}
	if h.off >= int64(len(h.ino.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.ino.data[h.off:])
	fault, err := h.fs.step(OpRead, h.path)
	if err != nil {
		return 0, err
	}
	if fault == FaultBitFlip && n > 0 {
		p[h.fs.rng.Intn(n)] ^= 1 << h.fs.rng.Intn(8)
	}
	h.off += int64(n)
	return n, nil
}

func (h *faultFile) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	fault, err := h.fs.step(OpWrite, h.path)
	if err != nil {
		return 0, err
	}
	at := h.off
	if h.flag&os.O_APPEND != 0 {
		at = int64(len(h.ino.data))
	}
	put := func(b []byte) {
		end := at + int64(len(b))
		for int64(len(h.ino.data)) < end {
			h.ino.data = append(h.ino.data, 0)
		}
		copy(h.ino.data[at:end], b)
		h.off = end
	}
	switch fault {
	case FaultCrash:
		put(p[:h.fs.tornLen(len(p))])
		return 0, ErrCrashed
	case FaultENOSPC:
		n := h.fs.tornLen(len(p))
		put(p[:n])
		return n, fmt.Errorf("write %s: %w", h.path, ErrNoSpace)
	case FaultTorn:
		n := h.fs.tornLen(len(p))
		put(p[:n])
		return n, io.ErrShortWrite
	}
	put(p)
	return len(p), nil
}

func (h *faultFile) Seek(offset int64, whence int) (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return 0, ErrCrashed
	}
	switch whence {
	case io.SeekStart:
		h.off = offset
	case io.SeekCurrent:
		h.off += offset
	case io.SeekEnd:
		h.off = int64(len(h.ino.data)) + offset
	}
	if h.off < 0 {
		h.off = 0
	}
	return h.off, nil
}

func (h *faultFile) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	fault, err := h.fs.step(OpTruncate, h.path)
	if err != nil {
		return err
	}
	if fault == FaultCrash {
		return ErrCrashed
	}
	if size <= int64(len(h.ino.data)) {
		h.ino.data = h.ino.data[:size]
	} else {
		for int64(len(h.ino.data)) < size {
			h.ino.data = append(h.ino.data, 0)
		}
	}
	return nil
}

func (h *faultFile) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	fault, err := h.fs.step(OpSync, h.path)
	if err != nil {
		return err
	}
	switch fault {
	case FaultCrash:
		return ErrCrashed
	case FaultSyncFail:
		// fsyncgate: the kernel reported the error once and marked the
		// dirty pages clean — the unsynced delta is gone and a retry
		// would "succeed" while the data is lost. Model that by
		// reverting to the synced image now.
		h.ino.data = append([]byte(nil), h.ino.synced...)
		return fmt.Errorf("sync %s: %w", h.path, ErrSyncFailed)
	}
	h.ino.synced = append([]byte(nil), h.ino.data...)
	return nil
}

func (h *faultFile) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return ErrCrashed
	}
	return nil
}

// --- fs.FileInfo / fs.DirEntry shims ---

type fileInfo struct {
	name string
	size int64
	dir  bool
}

func (i fileInfo) Name() string       { return i.name }
func (i fileInfo) Size() int64        { return i.size }
func (i fileInfo) Mode() fs.FileMode  { return modeOf(i.dir) }
func (i fileInfo) ModTime() time.Time { return time.Time{} }
func (i fileInfo) IsDir() bool        { return i.dir }
func (i fileInfo) Sys() interface{}   { return nil }

func modeOf(dir bool) fs.FileMode {
	if dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}

type dirEntry struct{ info fileInfo }

func (d dirEntry) Name() string               { return d.info.name }
func (d dirEntry) IsDir() bool                { return d.info.dir }
func (d dirEntry) Type() fs.FileMode          { return modeOf(d.info.dir) }
func (d dirEntry) Info() (fs.FileInfo, error) { return d.info, nil }
