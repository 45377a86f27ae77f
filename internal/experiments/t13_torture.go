package experiments

import (
	"context"
	"fmt"
	"sort"

	"drugtree/internal/store"
	"drugtree/internal/vfs"
)

// T13 — crash-point torture. Every persistence path in the system
// (the store's WAL and snapshot, the only durable state) runs over a
// deterministic vfs.FaultFS, and the harness enumerates *every*
// mutating filesystem operation in a workload as a power-cut point:
// for each point it re-runs the workload from scratch, cuts power at
// exactly that operation (un-synced bytes vanish), reboots, reopens
// the surviving bytes, and asserts the durability contract of DESIGN
// §10:
//
//   - the recovered table state is a fold of a prefix of the
//     acknowledged operation sequence — no torn row visible, no
//     duplicate, no reordering, nothing applied that was never issued;
//   - with -wal-sync=always the prefix covers every acknowledged op
//     (zero acknowledged loss at any crash point);
//   - with -wal-sync=interval the loss is bounded by the group-commit
//     interval; with -wal-sync=off loss is unbounded but the
//     prefix-fold invariant still holds (crashes lose, never corrupt);
//   - the surviving directory passes store.VerifyDir (crash residue is
//     torn tails, never checksum-bad records).
//
// Beyond pure crashes, mixed runs land a torn write or a failed fsync
// first and cut power shortly after — the fsyncgate shape: the store
// must have refused to acknowledge what it could not make durable.

// t13SyncEvery is the group-commit interval (records between fsyncs)
// the interval-policy rows run with; it is also the committed loss
// bound for that policy.
const t13SyncEvery = 4

// t13Op is one acknowledged-or-attempted mutation of the torture
// table: an insert or a delete of one keyed row, or an atomic batch
// of those (one CommitDeltas publish). A batch folds all-or-nothing:
// prefix verification can land between batches but never inside one,
// which is exactly the sync-commit atomicity claim — a power cut
// mid-publish recovers to the old version or the new one, never a
// mix.
type t13Op struct {
	del   bool
	id    int64
	batch []t13Op
}

// t13Fold folds the first m ops into the expected id set.
func t13Fold(ops []t13Op, m int) map[int64]bool {
	s := make(map[int64]bool)
	var apply func(op t13Op)
	apply = func(op t13Op) {
		if len(op.batch) > 0 {
			for _, b := range op.batch {
				apply(b)
			}
			return
		}
		if op.del {
			delete(s, op.id)
		} else {
			s[op.id] = true
		}
	}
	for _, op := range ops[:m] {
		apply(op)
	}
	return s
}

// t13Schema is the torture table layout.
func t13Schema() *store.Schema {
	return store.MustSchema(
		store.Column{Name: "id", Kind: store.KindInt},
		store.Column{Name: "v", Kind: store.KindString},
	)
}

func t13Row(id int64) store.Row {
	return store.Row{store.IntValue(id), store.StringValue(fmt.Sprintf("torture-%d", id))}
}

// t13Workload drives one op sequence against stores opened over fsys.
// run returns the attempted op sequence and how many of them were
// acknowledged; it stops at the first error (the injected fault or
// the power cut) and never fails the harness itself.
type t13Workload struct {
	name string
	run  func(ctx context.Context, fsys vfs.FS, opts store.Options) (attempted []t13Op, acked int)
}

// t13Insert appends one row through db, book-keeping the op.
func t13Insert(db *store.DB, id int64, rowIDs map[int64]int64, attempted *[]t13Op, acked *int) bool {
	*attempted = append(*attempted, t13Op{id: id})
	rid, err := db.Insert("t", t13Row(id))
	if err != nil {
		return false
	}
	rowIDs[id] = rid
	*acked++
	return true
}

func t13Workloads() []t13Workload {
	return []t13Workload{
		{name: "insert", run: func(ctx context.Context, fsys vfs.FS, opts store.Options) ([]t13Op, int) {
			var attempted []t13Op
			acked := 0
			db, err := store.OpenWith("db", opts)
			if err != nil {
				return attempted, acked
			}
			defer db.Close()
			if _, err := db.CreateTable("t", t13Schema()); err != nil {
				return attempted, acked
			}
			rowIDs := make(map[int64]int64)
			for i := 0; i < 16; i++ {
				if !t13Insert(db, int64(i), rowIDs, &attempted, &acked) {
					return attempted, acked
				}
			}
			return attempted, acked
		}},
		{name: "delete", run: func(ctx context.Context, fsys vfs.FS, opts store.Options) ([]t13Op, int) {
			var attempted []t13Op
			acked := 0
			db, err := store.OpenWith("db", opts)
			if err != nil {
				return attempted, acked
			}
			defer db.Close()
			if _, err := db.CreateTable("t", t13Schema()); err != nil {
				return attempted, acked
			}
			rowIDs := make(map[int64]int64)
			for i := 0; i < 10; i++ {
				if !t13Insert(db, int64(i), rowIDs, &attempted, &acked) {
					return attempted, acked
				}
			}
			for i := 0; i < 10; i += 2 {
				attempted = append(attempted, t13Op{del: true, id: int64(i)})
				if _, err := db.Delete("t", rowIDs[int64(i)]); err != nil {
					return attempted, acked
				}
				acked++
			}
			return attempted, acked
		}},
		{name: "checkpoint", run: func(ctx context.Context, fsys vfs.FS, opts store.Options) ([]t13Op, int) {
			var attempted []t13Op
			acked := 0
			db, err := store.OpenWith("db", opts)
			if err != nil {
				return attempted, acked
			}
			defer db.Close()
			if _, err := db.CreateTable("t", t13Schema()); err != nil {
				return attempted, acked
			}
			rowIDs := make(map[int64]int64)
			for i := 0; i < 6; i++ {
				if !t13Insert(db, int64(i), rowIDs, &attempted, &acked) {
					return attempted, acked
				}
			}
			if err := db.Checkpoint(); err != nil {
				return attempted, acked
			}
			for i := 6; i < 12; i++ {
				if !t13Insert(db, int64(i), rowIDs, &attempted, &acked) {
					return attempted, acked
				}
			}
			if err := db.Checkpoint(); err != nil {
				return attempted, acked
			}
			return attempted, acked
		}},
		{name: "sync-commit", run: func(ctx context.Context, fsys vfs.FS, opts store.Options) ([]t13Op, int) {
			// The integrate.Sync publish shape: each round atomically
			// replaces the previous generation of rows with the next via
			// one CommitDeltas (one WAL batch record). Each round is ONE
			// attempted/acked op whose batch folds all-or-nothing, so any
			// recovered state that mixes two generations fails the
			// prefix-fold check.
			var attempted []t13Op
			acked := 0
			db, err := store.OpenWith("db", opts)
			if err != nil {
				return attempted, acked
			}
			defer db.Close()
			if _, err := db.CreateTable("t", t13Schema()); err != nil {
				return attempted, acked
			}
			var prevRowIDs []int64
			var prevLogical []int64
			for r := 0; r < 5; r++ {
				var batch []t13Op
				delta := store.TableDelta{Table: "t", DeleteIDs: prevRowIDs}
				for _, lid := range prevLogical {
					batch = append(batch, t13Op{del: true, id: lid})
				}
				var logical []int64
				for i := 0; i < 4; i++ {
					lid := int64(100*r + i)
					batch = append(batch, t13Op{id: lid})
					delta.Inserts = append(delta.Inserts, t13Row(lid))
					logical = append(logical, lid)
				}
				attempted = append(attempted, t13Op{batch: batch})
				if err := db.CommitDeltas([]store.TableDelta{delta}); err != nil {
					return attempted, acked
				}
				acked++
				prevRowIDs = prevRowIDs[:0]
				if tab, terr := db.Table("t"); terr == nil {
					tab.Scan(func(rid int64, _ store.Row) bool {
						prevRowIDs = append(prevRowIDs, rid)
						return true
					})
				}
				prevLogical = logical
			}
			return attempted, acked
		}},
	}
}

// t13Policy is one -wal-sync policy row of the matrix with its
// committed acknowledged-loss bound (<0 means unbounded).
type t13Policy struct {
	name    string
	pol     store.SyncPolicy
	maxLoss int
}

func t13Policies() []t13Policy {
	return []t13Policy{
		{"always", store.SyncAlways, 0},
		{"interval", store.SyncInterval, t13SyncEvery},
		{"off", store.SyncOff, -1},
	}
}

// t13Mix is one fault mix: how the injector behaves around crash
// point k. The pure crash cuts power at op k; the mixed runs land a
// media fault at op k first and cut power two mutations later, so the
// harness checks that a store which just survived a torn write or a
// failed fsync still refuses to lose what it acknowledged.
type t13Mix struct {
	name   string
	stride int // enumerate every stride-th crash point
	inject func(k int) vfs.Injector
}

func t13Mixes() []t13Mix {
	return []t13Mix{
		{"crash", 1, func(k int) vfs.Injector {
			return func(op vfs.Op) vfs.Fault {
				if op.N == k {
					return vfs.FaultCrash
				}
				return vfs.FaultNone
			}
		}},
		{"torn+crash", 3, func(k int) vfs.Injector {
			return func(op vfs.Op) vfs.Fault {
				if op.N == k && op.Kind == vfs.OpWrite {
					return vfs.FaultTorn
				}
				if op.N == k+2 {
					return vfs.FaultCrash
				}
				return vfs.FaultNone
			}
		}},
		{"syncfail+crash", 3, func(k int) vfs.Injector {
			return func(op vfs.Op) vfs.Fault {
				if op.N == k && op.Kind == vfs.OpSync {
					return vfs.FaultSyncFail
				}
				if op.N == k+2 {
					return vfs.FaultCrash
				}
				return vfs.FaultNone
			}
		}},
	}
}

// t13Violation is one broken durability claim, addressed precisely
// enough to replay: same seed, same workload, same policy, same mix,
// same crash-point index.
type t13Violation struct {
	workload, policy, mix string
	point                 int
	detail                string
}

func (v t13Violation) String() string {
	return fmt.Sprintf("workload=%s policy=%s mix=%s crash-point=%d: %s",
		v.workload, v.policy, v.mix, v.point, v.detail)
}

// t13Cell aggregates one (workload, policy) cell of the report.
type t13Cell struct {
	workload, policy string
	points           int
	violations       int
}

// t13Verify reopens the surviving bytes after a reboot and checks the
// durability contract. It returns "" when every invariant holds.
func t13Verify(fsys *vfs.FaultFS, opts store.Options, dir string, attempted []t13Op, acked, maxLoss int) string {
	if _, err := fsys.Stat(dir); err != nil {
		// The crash predates the store directory: the empty state is
		// the fold of the empty prefix, valid only if nothing (beyond
		// the loss bound) was acknowledged.
		if maxLoss >= 0 && acked > maxLoss {
			return fmt.Sprintf("store directory lost with %d acked ops (bound %d)", acked, maxLoss)
		}
		return ""
	}
	if err := store.VerifyDir(fsys, dir); err != nil {
		return fmt.Sprintf("surviving bytes fail verification (crash residue must be torn, not corrupt): %v", err)
	}
	db, err := store.OpenWith(dir, opts)
	if err != nil {
		return fmt.Sprintf("store did not reopen from surviving bytes: %v", err)
	}
	defer db.Close()
	recovered := make(map[int64]bool)
	if tab, err := db.Table("t"); err == nil {
		tab.Scan(func(_ int64, r store.Row) bool {
			recovered[r[0].I] = true
			return true
		})
	}
	// The recovered state must be the fold of some attempted prefix;
	// take the longest matching prefix (minimal implied loss).
	match := -1
	for m := len(attempted); m >= 0; m-- {
		if t13SetEq(recovered, t13Fold(attempted, m)) {
			match = m
			break
		}
	}
	if match < 0 {
		return fmt.Sprintf("recovered state (%d rows) is no prefix fold of the %d attempted ops: torn or reordered apply",
			len(recovered), len(attempted))
	}
	if maxLoss >= 0 && acked-match > maxLoss {
		return fmt.Sprintf("lost %d acknowledged ops (acked=%d, recovered prefix=%d, bound %d)",
			acked-match, acked, match, maxLoss)
	}
	return ""
}

// t13SetEq reports whether two id sets are identical.
func t13SetEq(a, b map[int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// t13Matrix enumerates the full crash-point matrix. wrap, when
// non-nil, decorates every FaultFS before the stores see it — the
// harness-has-teeth meta-test passes vfs.NoDirSync to re-break rename
// durability and asserts the matrix catches it. It returns the cells,
// the total number of crash points enumerated, and every violation.
func t13Matrix(ctx context.Context, seed int64, wrap func(vfs.FS) vfs.FS) ([]t13Cell, int, []t13Violation, error) {
	if wrap == nil {
		wrap = func(fs vfs.FS) vfs.FS { return fs }
	}
	var cells []t13Cell
	var violations []t13Violation
	total := 0
	for _, w := range t13Workloads() {
		for _, pol := range t13Policies() {
			opts := func(fsys vfs.FS) store.Options {
				return store.Options{FS: fsys, Sync: pol.pol, SyncEvery: t13SyncEvery}
			}
			// Dry run: count the workload's mutating filesystem ops;
			// each one is a crash point.
			dry := vfs.NewFault(seed)
			w.run(ctx, wrap(dry), opts(wrap(dry)))
			points := dry.MutOps()
			cell := t13Cell{workload: w.name, policy: pol.name}
			for _, mix := range t13Mixes() {
				for k := 1; k <= points; k += mix.stride {
					if err := ctx.Err(); err != nil {
						return cells, total, violations, err
					}
					fsys := vfs.NewFault(seed)
					fsys.SetInjector(mix.inject(k))
					wfs := wrap(fsys)
					attempted, acked := w.run(ctx, wfs, opts(wfs))
					fsys.SetInjector(nil)
					fsys.Reboot()
					if detail := t13Verify(fsys, opts(wfs), "db", attempted, acked, pol.maxLoss); detail != "" {
						violations = append(violations, t13Violation{
							workload: w.name, policy: pol.name, mix: mix.name, point: k, detail: detail,
						})
					}
					cell.points++
					total++
				}
			}
			cells = append(cells, cell)
		}
	}
	// Fold violations back into their cells.
	for _, v := range violations {
		for i := range cells {
			if cells[i].workload == v.workload && cells[i].policy == v.policy {
				cells[i].violations++
			}
		}
	}
	return cells, total, violations, nil
}

// RunT13 runs the torture matrix and errors on any violated
// durability claim, printing the failing seed, workload, policy, mix,
// and crash-point index so the failure replays deterministically.
func RunT13(ctx context.Context, seed int64) (*Report, error) {
	cells, total, violations, err := t13Matrix(ctx, seed, nil)
	if err != nil {
		return nil, err
	}
	if len(violations) > 0 {
		sort.Slice(violations, func(i, j int) bool { return violations[i].point < violations[j].point })
		return nil, fmt.Errorf("T13: %d durability violations at seed %d; first: %s",
			len(violations), seed, violations[0])
	}
	const minPoints = 200
	if total < minPoints {
		return nil, fmt.Errorf("T13: enumerated only %d crash points, want >= %d", total, minPoints)
	}
	rep := &Report{
		ID:     "T13",
		Title:  fmt.Sprintf("Crash-point torture: %d power cuts across {insert,delete,checkpoint,sync-commit} × {always,interval,off} × fault mixes", total),
		Header: []string{"workload", "wal-sync", "crash points", "violations"},
	}
	for _, c := range cells {
		rep.Rows = append(rep.Rows, []string{c.workload, c.policy, fmt.Sprintf("%d", c.points), fmt.Sprintf("%d", c.violations)})
	}
	rep.Rows = append(rep.Rows, []string{"TOTAL", "", fmt.Sprintf("%d", total), "0"})
	rep.Notes = fmt.Sprintf(
		"every mutating fs op is a power-cut point (seed %d): recovered state is always a prefix fold of the acked op sequence; always loses 0 acked writes, interval at most %d, off never corrupts",
		seed, t13SyncEvery)
	return rep, nil
}
