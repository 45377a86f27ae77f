package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"drugtree/internal/vfs"
)

// ErrWALCorrupt is VerifyDir's verdict on a fully-present WAL record
// that failed its checksum: mid-log rot, not crash residue.
var ErrWALCorrupt = errors.New("store: WAL record corrupt")

// ErrPoisoned marks a database whose write path hit an I/O failure
// (WAL append or fsync). Once a WAL write fails the log's tail is in
// an unknown state — a partially-written record may sit where the
// next append would land — so continuing to append could corrupt the
// middle of the log. The DB therefore refuses further mutations
// (reads keep working) until it is closed and reopened; reopen
// recovers to the last durable prefix.
var ErrPoisoned = errors.New("store: write path poisoned by I/O failure")

// SyncPolicy selects when the WAL fsyncs (the durability contract —
// see DESIGN §10).
type SyncPolicy int

const (
	// SyncInterval group-commits: the WAL fsyncs once every
	// Options.SyncEvery records. A crash loses at most the last
	// SyncEvery acknowledged writes.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs on every record before acknowledging it. A
	// crash at any point loses no acknowledged write.
	SyncAlways
	// SyncOff never fsyncs the WAL on the append path (the OS decides
	// when bytes reach disk). Crash loss is unbounded; Close and
	// Checkpoint still sync.
	SyncOff
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	default:
		return "interval"
	}
}

// ParseSyncPolicy parses the -wal-sync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return SyncAlways, nil
	case "interval", "":
		return SyncInterval, nil
	case "off", "never":
		return SyncOff, nil
	}
	return SyncInterval, fmt.Errorf("store: unknown WAL sync policy %q (want always, interval, or off)", s)
}

// DefaultSyncEvery is the group-commit interval used when
// Options.SyncEvery is zero.
const DefaultSyncEvery = 64

// Options configures a database's durability behaviour. The zero
// value means: real filesystem, interval fsync every DefaultSyncEvery
// records.
type Options struct {
	// FS is the filesystem seam. nil means the real filesystem
	// (vfs.OS()); tests substitute a vfs.FaultFS.
	FS vfs.FS
	// Sync is the WAL fsync policy.
	Sync SyncPolicy
	// SyncEvery is the group-commit interval for SyncInterval
	// (records between fsyncs). Zero means DefaultSyncEvery.
	SyncEvery int
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = vfs.OS()
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = DefaultSyncEvery
	}
	return o
}

// DB is a named collection of tables with optional durability: when
// opened with a directory, every mutation is appended to a write-ahead
// log and Checkpoint() writes a snapshot and truncates the log. Opened
// with an empty dir, the DB is purely in-memory.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	dict   *Dict // the strings of every coded column, shared by the tables
	dir    string
	fsys   vfs.FS
	wal    *walWriter
	// failed holds the poisoning error once a WAL write/fsync fails;
	// all access is atomic (checked lock-free on every mutation).
	failed atomic.Pointer[error]
	// snapCount tracks outstanding pinned snapshots (leak accounting).
	snapCount atomic.Int64
	// hooks receive a CommitEvent per committed mutation batch on any
	// table; hookMu guards registration against concurrent dispatch.
	hookMu sync.RWMutex
	hooks  []func(CommitEvent)
	// idScratch is CommitDeltas' working space for the duplicate-delete
	// check, guarded by mu.
	idScratch []int64
}

// OnCommit registers fn to receive one CommitEvent per committed
// mutation batch on any table, including tables created later. fn runs
// synchronously inside the table's commit critical section — in strict
// per-table version order — so it must be fast, must not call back
// into the store, and may read the event's retired rows only until it
// returns (see CommitEvent).
func (db *DB) OnCommit(fn func(CommitEvent)) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.hookMu.Lock()
	db.hooks = append(db.hooks, fn)
	db.hookMu.Unlock()
	for _, t := range db.tables {
		t.setOnCommit(db.dispatchCommit)
	}
}

// dispatchCommit fans one table's commit event out to the registered
// hooks. Installed as every table's onCommit once a hook exists.
func (db *DB) dispatchCommit(ev CommitEvent) {
	db.hookMu.RLock()
	hooks := db.hooks
	db.hookMu.RUnlock()
	for _, fn := range hooks {
		fn(ev)
	}
}

// registerTable wires a freshly created table into the commit-event
// stream before it is published. A database nobody listens to leaves
// its tables unhooked, so their commits build no events; OnCommit hooks
// up the tables that exist by then (both run under db.mu or, at Open,
// before the database is shared).
func (db *DB) registerTable(t *Table) *Table {
	db.hookMu.RLock()
	listening := len(db.hooks) > 0
	db.hookMu.RUnlock()
	if listening {
		t.setOnCommit(db.dispatchCommit)
	}
	return t
}

// Open creates or reopens a database with default options (real
// filesystem, interval WAL fsync). dir == "" gives an in-memory
// database; otherwise dir is created if needed, the latest snapshot is
// loaded, and the WAL is replayed.
func Open(dir string) (*DB, error) { return OpenWith(dir, Options{}) }

// OpenWith is Open with explicit durability options.
func OpenWith(dir string, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	db := &DB{tables: make(map[string]*Table), dict: newDict(), dir: dir, fsys: opts.FS}
	if dir == "" {
		return db, nil
	}
	if err := db.fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	// Sweep orphaned atomic-rename temporaries: a crash between
	// creating snapshot.dts.tmp and renaming it leaves the tmp behind
	// forever, and a later checkpoint would silently reuse the name.
	if err := db.removeOrphanedTemps(); err != nil {
		return nil, err
	}
	snapSeq, err := db.loadSnapshot()
	if err != nil {
		return nil, err
	}
	walSeq, err := db.replayWAL(snapSeq)
	if err != nil {
		return nil, err
	}
	w, err := openWAL(db.fsys, db.walPath(), opts)
	if err != nil {
		return nil, err
	}
	// Creating the WAL file is a namespace mutation: without a parent
	// directory fsync the file's entry — and with it every record ever
	// appended — can vanish at power loss even though the content was
	// fsynced. One SyncDir here also commits the tmp-sweep removals.
	if err := db.fsys.SyncDir(dir); err != nil {
		w.CloseSync(false)
		return nil, fmt.Errorf("store: syncing %s: %w", dir, err)
	}
	// The sequence counter survives reopen: the snapshot trailer holds
	// the seq at checkpoint time and each surviving WAL record carries
	// its own, so the next mutation continues the monotonic stream.
	w.seq = snapSeq
	if walSeq > w.seq {
		w.seq = walSeq
	}
	db.wal = w
	return db, nil
}

// removeOrphanedTemps deletes *.tmp files left by a crash between
// tmp-create and rename. The removals become durable with the SyncDir
// Open issues after the WAL is created.
func (db *DB) removeOrphanedTemps() error {
	ents, err := db.fsys.ReadDir(db.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("store: listing %s: %w", db.dir, err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		if err := db.fsys.Remove(filepath.Join(db.dir, e.Name())); err != nil {
			return fmt.Errorf("store: removing orphaned %s: %w", e.Name(), err)
		}
	}
	return nil
}

// Failed reports the poisoning error if the write path has been
// disabled by an earlier I/O failure, else nil. errors.Is(err,
// ErrPoisoned) identifies it.
func (db *DB) Failed() error {
	if p := db.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// poison records err as the reason the write path is now disabled and
// returns the sticky poisoning error. The first failure wins.
func (db *DB) poison(err error) error {
	wrapped := fmt.Errorf("%w: %w", ErrPoisoned, err)
	db.failed.CompareAndSwap(nil, &wrapped)
	return db.Failed()
}

// Close flushes and closes the WAL.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal != nil {
		// A poisoned WAL must not fsync on close: flushing a torn tail
		// would make the damage durable. Recovery truncates at the torn
		// record either way; skipping the sync keeps the damage small.
		return db.wal.CloseSync(db.Failed() == nil)
	}
	return nil
}

func (db *DB) snapshotPath() string { return filepath.Join(db.dir, "snapshot.dts") }
func (db *DB) walPath() string      { return filepath.Join(db.dir, "wal.dtl") }

// CreateTable creates a table. The schema is logged so reopening
// recreates it.
func (db *DB) CreateTable(name string, schema *Schema) (*Table, error) {
	if err := db.Failed(); err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("store: table %q already exists", name)
	}
	t := db.registerTable(newTable(name, schema, db.dict))
	db.tables[name] = t
	if db.wal != nil {
		if err := db.wal.logCreateTable(name, schema); err != nil {
			return nil, db.poison(err)
		}
	}
	return t, nil
}

// Table returns the named table, or an error.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("store: no table %q", name)
	}
	return t, nil
}

// table resolves a table name; callers hold db.mu.
func (db *DB) tableLocked(name string) (*Table, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("store: no table %q", name)
	}
	return t, nil
}

// Insert inserts one row — a one-row CommitDeltas — and returns its ID.
func (db *DB) Insert(table string, r Row) (int64, error) {
	return db.commit([]TableDelta{{Table: table, Inserts: []Row{r}}})
}

// Delete removes one row — a one-row CommitDeltas — reporting false when
// the table holds no live row with that ID.
func (db *DB) Delete(table string, id int64) (bool, error) {
	_, err := db.commit([]TableDelta{{Table: table, DeleteIDs: []int64{id}}})
	if errors.Is(err, errNoRow) {
		return false, nil
	}
	return err == nil, err
}

// Checkpoint writes a full snapshot and truncates the WAL. The
// protocol is crash-safe at every step: tmp write → tmp fsync → rename
// → directory fsync → WAL truncate (fsynced). A crash before the
// directory fsync recovers from the old snapshot + full WAL; after it,
// from the new snapshot (replay skips records the snapshot already
// holds). A failure while producing the tmp file does not poison the
// database — the WAL is untouched and the tmp is removed — but a
// failure truncating the WAL after the rename does.
func (db *DB) Checkpoint() error {
	if db.dir == "" {
		return nil
	}
	if err := db.Failed(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	tmp := db.snapshotPath() + ".tmp"
	f, err := db.fsys.Create(tmp)
	if err != nil {
		return err
	}
	var seq int64
	if db.wal != nil {
		seq = db.wal.Seq()
	}
	w := bufio.NewWriter(f)
	if err := db.writeSnapshot(w, seq); err != nil {
		f.Close()
		db.fsys.Remove(tmp)
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		db.fsys.Remove(tmp)
		return err
	}
	//lint:ignore drugtree/lockcheck checkpoint fsync must run under db.mu so the snapshot is a frozen point-in-time image
	if err := f.Sync(); err != nil {
		f.Close()
		db.fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		db.fsys.Remove(tmp)
		return err
	}
	if err := db.fsys.Rename(tmp, db.snapshotPath()); err != nil {
		return err
	}
	// Rename durability: the new snapshot's directory entry is not on
	// disk until the parent directory is fsynced. Truncating the WAL
	// before this point could lose everything — old snapshot entry
	// replaced in memory, new entry not durable, WAL gone.
	if err := db.fsys.SyncDir(db.dir); err != nil {
		return fmt.Errorf("store: syncing %s after snapshot rename: %w", db.dir, err)
	}
	// Truncate the WAL: everything it held is in the snapshot.
	if db.wal != nil {
		if err := db.wal.Reset(); err != nil {
			// The WAL tail is now unknown (truncation may be partially
			// durable); no further append may land on it.
			return db.poison(err)
		}
	}
	return nil
}

// snapshotMagic opens a snapshot, whose last four bytes are a CRC32 of
// everything before them, so at-rest corruption is detected at load
// instead of being served. The checksum-less DTSNAP1 form, which nothing
// writes any more, is refused.
var snapshotMagic = []byte("DTSNAP2\n")

// crcWriter tees writes into a running CRC32 so the snapshot checksum
// covers exactly the bytes that reached the writer.
type crcWriter struct {
	w   io.Writer
	sum uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.sum = crc32.Update(c.sum, crc32.IEEETable, p[:n])
	return n, err
}

func (db *DB) writeSnapshot(w *bufio.Writer, seq int64) error {
	cw := &crcWriter{w: w}
	if _, err := cw.Write(snapshotMagic); err != nil {
		return err
	}
	// A frozen table is published by its owner on every open, so no
	// checkpoint holds one.
	names := make([]string, 0, len(db.tables))
	for n, t := range db.tables {
		if t.img == nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	if _, err := cw.Write(buf); err != nil {
		return err
	}
	for _, name := range names {
		t := db.tables[name]
		t.mu.RLock()
		err := writeTableSnapshot(cw, t)
		t.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	// Trailer: the WAL sequence this snapshot is current through, then
	// the CRC of everything before it (magic through seq).
	buf = binary.AppendUvarint(buf[:0], uint64(seq))
	if _, err := cw.Write(buf); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], cw.sum)
	_, err := w.Write(crc[:])
	return err
}

func writeTableSnapshot(w io.Writer, t *Table) error {
	var buf []byte
	buf = appendString(buf, t.name)
	// Schema.
	buf = binary.AppendUvarint(buf, uint64(t.schema.Len()))
	for _, c := range t.schema.Columns {
		buf = appendString(buf, c.Name)
		buf = append(buf, byte(c.Kind))
	}
	// Indexes, in column-name order.
	buf = binary.AppendUvarint(buf, uint64(len(t.indexes)))
	for _, ix := range t.indexes {
		buf = appendString(buf, t.schema.Columns[ix.column].Name)
		buf = append(buf, byte(ix.typ))
	}
	// Rows: the versions visible at the current commit — a snapshot is
	// a point-in-time image, so superseded and pending-GC versions are
	// not persisted.
	buf = binary.AppendUvarint(buf, uint64(t.live))
	if _, err := w.Write(buf); err != nil {
		return err
	}
	var rowBuf []byte
	var err error
	scanRows(t.latestLocked(), func(_ int64, r Row) bool {
		rowBuf = AppendRow(rowBuf[:0], r)
		_, err = w.Write(rowBuf)
		return err == nil
	})
	return err
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("store: string length %d exceeds limit", n)
	}
	// Bytes already buffered are copied once, straight into the string.
	if b, err := r.Peek(int(n)); err == nil {
		s := string(b)
		_, _ = r.Discard(len(b)) // cannot come up short: Peek returned them
		return s, nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// parseSnapshot loads the snapshot file path holds, data, into db's
// tables and returns the WAL sequence its trailer records. The magic,
// the whole-file checksum and the trailer are all required: without the
// sequence, recovery would replay every WAL record over rows the
// snapshot already holds.
func (db *DB) parseSnapshot(path string, data []byte) (int64, error) {
	if len(data) < len(snapshotMagic)+4 || !bytes.Equal(data[:len(snapshotMagic)], snapshotMagic) {
		return 0, fmt.Errorf("store: %s is not a DrugTree snapshot (want magic %q and a checksum)", path, snapshotMagic)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return 0, fmt.Errorf("store: %s: snapshot checksum mismatch", path)
	}
	r := bufio.NewReader(bytes.NewReader(body[len(snapshotMagic):]))
	nTables, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("store: %s: %w", path, err)
	}
	for ti := uint64(0); ti < nTables; ti++ {
		if err := db.loadTableSnapshot(r); err != nil {
			return 0, fmt.Errorf("store: %s: table %d: %w", path, ti, err)
		}
	}
	seq, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("store: %s: no WAL sequence trailer: %w", path, err)
	}
	return int64(seq), nil
}

func (db *DB) loadSnapshot() (int64, error) {
	data, err := db.fsys.ReadFile(db.snapshotPath())
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return db.parseSnapshot(db.snapshotPath(), data)
}

// loadChunk is how many snapshot rows loadTableSnapshot commits at once.
const loadChunk = 4096

func (db *DB) loadTableSnapshot(r *bufio.Reader) error {
	name, err := readString(r)
	if err != nil {
		return err
	}
	nCols, err := binary.ReadUvarint(r)
	if err != nil {
		return err
	}
	if nCols > maxRowCells {
		return fmt.Errorf("store: column count %d exceeds limit", nCols)
	}
	cols := make([]Column, nCols)
	for i := range cols {
		cname, err := readString(r)
		if err != nil {
			return err
		}
		kb, err := r.ReadByte()
		if err != nil {
			return err
		}
		cols[i] = Column{Name: cname, Kind: Kind(kb)}
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return err
	}
	t := newTable(name, schema, db.dict)
	nIx, err := binary.ReadUvarint(r)
	if err != nil {
		return err
	}
	ixs := make([]IndexSpec, nIx)
	for i := range ixs {
		col, err := readString(r)
		if err != nil {
			return err
		}
		tb, err := r.ReadByte()
		if err != nil {
			return err
		}
		ixs[i] = IndexSpec{col, IndexType(tb)}
	}
	nRows, err := binary.ReadUvarint(r)
	if err != nil {
		return err
	}
	// Rows load a chunk per commit, so the boxed rows in flight — and what
	// a corrupt row count can make this allocate — stay bounded.
	for done := uint64(0); done < nRows; {
		rows := make([]Row, min(nRows-done, loadChunk))
		for i := range rows {
			if rows[i], err = ReadRow(r); err != nil {
				return fmt.Errorf("row %d: %w", done+uint64(i), err)
			}
		}
		if err := t.validateDelta(nil, rows, nil); err != nil {
			return fmt.Errorf("rows from %d: %w", done, err)
		}
		t.applyDelta(nil, rows, false)
		done += uint64(len(rows))
	}
	// Build indexes after bulk load (cheaper than per-row upkeep).
	for _, ix := range ixs {
		if err := t.CreateIndex(ix.Column, ix.Type); err != nil {
			return err
		}
	}
	db.tables[name] = db.registerTable(t)
	return nil
}

// VerifyDir checks the on-disk integrity of a store directory without
// opening it: the snapshot must match its whole-file checksum, parse
// and end in its WAL sequence trailer, and every fully-present WAL
// record must pass its CRC.
// A torn WAL tail is fine — that is normal crash residue recovery
// truncates — but a checksum-bad snapshot or mid-log record returns an
// error (ErrWALCorrupt for the latter). The crash-point matrix,
// TestTortureMatrix, runs it on every directory a power cut leaves
// behind.
func VerifyDir(fsys vfs.FS, dir string) error {
	if fsys == nil {
		fsys = vfs.OS()
	}
	snapPath := filepath.Join(dir, "snapshot.dts")
	if data, err := fsys.ReadFile(snapPath); err == nil {
		// A structural parse into a scratch DB, so row payloads decode.
		if _, err := (&DB{tables: make(map[string]*Table)}).parseSnapshot(snapPath, data); err != nil {
			return err
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	walPath := filepath.Join(dir, "wal.dtl")
	data, err := fsys.ReadFile(walPath)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	r := bufio.NewReader(bytes.NewReader(data))
	var prev int64
	for {
		n, err := binary.ReadUvarint(r)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil || n > maxWALRecord {
			return nil // torn tail
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil // torn payload
		}
		var crc [4]byte
		if _, err := io.ReadFull(r, crc[:]); err != nil {
			return nil // torn checksum
		}
		if binary.LittleEndian.Uint32(crc[:]) != crc32.ChecksumIEEE(payload) {
			// Distinguish "last record torn" (clean) from "mid-log rot"
			// (corrupt): if more bytes follow this record it cannot be
			// crash residue.
			if _, err := r.Peek(1); err != nil {
				return nil
			}
			return fmt.Errorf("store: %s: record after seq %d: %w", walPath, prev, ErrWALCorrupt)
		}
		seq, m := binary.Uvarint(payload)
		if m <= 0 {
			return fmt.Errorf("store: %s: record after seq %d: %w", walPath, prev, ErrWALCorrupt)
		}
		prev = int64(seq)
	}
}

// --- WAL ---

// WAL record types. Types 2 and 3 were the single-row insert and delete
// records; every mutation is a batch now, nothing writes them, and a log
// holding one fails to open as an unknown record type (no deployed log
// predates this, so there is no migration).
const (
	walCreateTable = 1
	// walBatch is an atomic multi-table delta: per table, the deleted
	// rows' values followed by the inserted rows. The whole batch rides
	// in ONE length-prefixed CRC-protected record, so recovery replays
	// it entirely or not at all — a power cut mid-publish lands on
	// exactly the old or the new version, never between.
	walBatch = 4
)

// maxWALRecord bounds one record's payload. Readers treat a longer
// length prefix as a torn tail, so the writer refuses to produce one: a
// whole commit is one record, and a commit too large for it fails (and
// poisons the write path) instead of vanishing at the next replay.
const maxWALRecord = 64 << 20

// walWriter appends length-prefixed CRC-protected records, each
// carrying a monotonic sequence number, so replay can skip what a
// snapshot already holds. Fsync is group-committed: appends run under mu, fsyncs under the
// separate syncMu, and a waiter whose record was already covered by a
// concurrent fsync returns without issuing its own.
type walWriter struct {
	mu     sync.Mutex
	f      vfs.File
	fsys   vfs.FS
	buf    []byte
	seq    int64
	policy SyncPolicy
	every  int64
	// written counts records appended (under mu); synced is the
	// written-count covered by the last successful fsync.
	written int64
	synced  atomic.Int64
	syncMu  sync.Mutex
}

func openWAL(fsys vfs.FS, path string, opts Options) (*walWriter, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &walWriter{f: f, fsys: fsys, policy: opts.Sync, every: int64(opts.SyncEvery)}, nil
}

// CloseSync closes the WAL, first fsyncing buffered records (unless
// the caller is poisoned and passes sync=false).
func (w *walWriter) CloseSync(sync bool) error {
	if sync {
		w.mu.Lock()
		ticket := w.written
		w.mu.Unlock()
		if err := w.syncTo(ticket); err != nil {
			w.f.Close()
			return err
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// Reset truncates the log (called after a checkpoint) and fsyncs the
// truncation so a post-checkpoint crash cannot resurrect pre-checkpoint
// records — replaying those on top of the new snapshot would duplicate
// rows. The sequence counter is NOT reset: seq is monotonic for the
// lifetime of the database: replay skips records at or below the
// snapshot's trailer, so a reset counter would hide every later one.
func (w *walWriter) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	//lint:ignore drugtree/lockcheck truncation fsync must complete before any post-checkpoint append is allowed to land
	if err := w.f.Sync(); err != nil {
		return err
	}
	// The (empty) log is fully durable.
	w.synced.Store(w.written)
	return nil
}

// Seq returns the sequence number of the last record written.
func (w *walWriter) Seq() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// syncTo guarantees the first `ticket` appended records are durable
// when it returns nil. Group commit: if a concurrent fsync already
// covered the ticket this returns immediately; otherwise one fsync is
// issued that covers every record appended before it started.
func (w *walWriter) syncTo(ticket int64) error {
	if w.synced.Load() >= ticket {
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.synced.Load() >= ticket {
		return nil // a group commit raced ahead of us
	}
	w.mu.Lock()
	covered := w.written
	w.mu.Unlock()
	//lint:ignore drugtree/lockcheck group commit holds syncMu across the fsync by design: it is the ticket that lets concurrent committers piggyback on one disk flush
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.synced.Store(covered)
	return nil
}

// writeRecord assigns the next sequence number, appends body, and
// applies the fsync policy before acknowledging.
func (w *walWriter) writeRecord(body []byte) error {
	w.mu.Lock()
	err := w.writeRecordLocked(body)
	ticket := w.written
	w.mu.Unlock()
	if err != nil {
		return err
	}
	switch w.policy {
	case SyncAlways:
		return w.syncTo(ticket)
	case SyncInterval:
		if ticket-w.synced.Load() >= w.every {
			return w.syncTo(ticket)
		}
	}
	return nil
}

// writeRecordLocked frames `uvarint(seq) ++ body`, seq the next
// sequence number, as: uvarint length, payload, crc32. Callers hold
// w.mu.
func (w *walWriter) writeRecordLocked(body []byte) error {
	seq := w.seq + 1
	payload := binary.AppendUvarint(nil, uint64(seq))
	payload = append(payload, body...)
	if len(payload) > maxWALRecord {
		return fmt.Errorf("store: WAL record of %d bytes exceeds the %d-byte limit replay accepts", len(payload), maxWALRecord)
	}
	w.buf = w.buf[:0]
	w.buf = binary.AppendUvarint(w.buf, uint64(len(payload)))
	w.buf = append(w.buf, payload...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	w.buf = append(w.buf, crc[:]...)
	if _, err := w.f.Write(w.buf); err != nil {
		return err
	}
	w.seq = seq
	w.written++
	return nil
}

func (w *walWriter) logCreateTable(name string, schema *Schema) error {
	var p []byte
	p = append(p, walCreateTable)
	p = appendString(p, name)
	p = binary.AppendUvarint(p, uint64(schema.Len()))
	for _, c := range schema.Columns {
		p = appendString(p, c.Name)
		p = append(p, byte(c.Kind))
	}
	return w.writeRecord(p)
}

// walTableDelta is one table's slice of a batch record.
type walTableDelta struct {
	table   string
	deletes []Row
	inserts []Row
}

func (w *walWriter) logBatch(deltas []walTableDelta) error {
	var p []byte
	p = append(p, walBatch)
	p = binary.AppendUvarint(p, uint64(len(deltas)))
	for _, d := range deltas {
		p = appendString(p, d.table)
		p = binary.AppendUvarint(p, uint64(len(d.deletes)))
		for _, r := range d.deletes {
			p = AppendRow(p, r)
		}
		p = binary.AppendUvarint(p, uint64(len(d.inserts)))
		for _, r := range d.inserts {
			p = AppendRow(p, r)
		}
	}
	return w.writeRecord(p)
}

// replayWAL applies logged mutations after the snapshot and returns
// the sequence number of the last record applied. A torn or corrupt
// tail record ends replay cleanly (standard WAL semantics). snapSeq is
// the sequence the snapshot is current through: records at or below it
// are already folded into the snapshot and are skipped — replaying
// them would double-apply (a crash between the snapshot rename and the
// WAL truncation leaves exactly that overlap on disk).
func (db *DB) replayWAL(snapSeq int64) (int64, error) {
	f, err := db.fsys.Open(db.walPath())
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return db.replayWALFrom(bufio.NewReader(f), snapSeq)
}

// replayWALFrom is the reader-driven core of replayWAL, split out so
// tests can feed it transports that decorate errors: end-of-stream is
// detected with errors.Is(err, io.EOF), not identity, so a source that
// returns a wrapped EOF still ends replay cleanly instead of being
// mistaken for a torn record.
func (db *DB) replayWALFrom(r *bufio.Reader, snapSeq int64) (int64, error) {
	var last int64
	for {
		n, err := binary.ReadUvarint(r)
		if errors.Is(err, io.EOF) {
			return last, nil
		}
		if err != nil {
			return last, nil // torn length: stop replay
		}
		if n > maxWALRecord {
			return last, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return last, nil // torn payload
		}
		var crc [4]byte
		if _, err := io.ReadFull(r, crc[:]); err != nil {
			return last, nil
		}
		if binary.LittleEndian.Uint32(crc[:]) != crc32.ChecksumIEEE(payload) {
			return last, nil // corrupt record: stop
		}
		seq, m := binary.Uvarint(payload)
		if m <= 0 {
			return last, nil // unparseable seq prefix: stop
		}
		if int64(seq) <= snapSeq {
			last = int64(seq)
			continue // already folded into the snapshot
		}
		if err := db.applyWALRecord(payload[m:]); err != nil {
			return last, fmt.Errorf("store: replaying WAL: %w", err)
		}
		last = int64(seq)
	}
}

// WALSeq returns the sequence number of the last WAL record written.
// An in-memory database (no WAL) always reports 0.
func (db *DB) WALSeq() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.wal == nil {
		return 0
	}
	return db.wal.Seq()
}

// applyWALRecord decodes one record body and applies it during replay.
// A batch goes table by table through Table.applyDeltaByValue, so it
// lands in the same applyDeltaLocked a live commit uses; replay runs at
// Open, before the database is shared.
func (db *DB) applyWALRecord(p []byte) error {
	r := bufio.NewReader(bytes.NewReader(p))
	typ, err := r.ReadByte()
	if err != nil {
		return err
	}
	switch typ {
	case walCreateTable:
		name, err := readString(r)
		if err != nil {
			return err
		}
		nCols, err := binary.ReadUvarint(r)
		if err != nil {
			return err
		}
		cols := make([]Column, nCols)
		for i := range cols {
			cname, err := readString(r)
			if err != nil {
				return err
			}
			kb, err := r.ReadByte()
			if err != nil {
				return err
			}
			cols[i] = Column{Name: cname, Kind: Kind(kb)}
		}
		schema, err := NewSchema(cols...)
		if err != nil {
			return err
		}
		if _, exists := db.tables[name]; exists {
			return nil // snapshot already has it
		}
		db.tables[name] = db.registerTable(newTable(name, schema, db.dict))
		return nil
	case walBatch:
		nTables, err := binary.ReadUvarint(r)
		if err != nil {
			return err
		}
		for ti := uint64(0); ti < nTables; ti++ {
			name, err := readString(r)
			if err != nil {
				return err
			}
			readRows := func() ([]Row, error) {
				n, err := binary.ReadUvarint(r)
				if err != nil {
					return nil, err
				}
				rows := make([]Row, 0, n)
				for i := uint64(0); i < n; i++ {
					row, err := ReadRow(r)
					if err != nil {
						return nil, err
					}
					rows = append(rows, row)
				}
				return rows, nil
			}
			deletes, err := readRows()
			if err != nil {
				return err
			}
			inserts, err := readRows()
			if err != nil {
				return err
			}
			t, ok := db.tables[name]
			if !ok {
				return fmt.Errorf("batch delta for unknown table %q", name)
			}
			if err := t.applyDeltaByValue(deletes, inserts); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown WAL record type %d", p[0])
}
