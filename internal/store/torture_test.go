package store

import (
	"fmt"
	"maps"
	"testing"

	"drugtree/internal/vfs"
)

// Crash-point torture. Every persistence path of the store (the WAL and
// the snapshot, the only durable state) runs over a deterministic
// vfs.FaultFS, and every mutating filesystem operation a workload issues
// is a power-cut point: for each one the workload re-runs from scratch,
// power is cut at exactly that operation (un-synced bytes vanish), the
// filesystem reboots, and the surviving bytes must reopen to
//
//   - a fold of a prefix of the attempted operation sequence: no torn
//     row, no reordering, nothing applied that was never issued;
//   - a prefix that loses at most the policy's bound of acknowledged
//     operations: none under SyncAlways, SyncEvery under SyncInterval,
//     any number (but never a corrupt state) under SyncOff;
//   - a directory VerifyDir accepts: crash residue is a torn tail, never
//     a checksum-bad record.
//
// The mixed runs land a torn write or a failed fsync first and cut power
// two operations later — the fsyncgate shape: a store that just survived
// a media fault must still have refused to acknowledge what it could
// not make durable.

// tortureOp is one attempted mutation of table t: an insert or a delete
// of one keyed row, or an atomic batch of those (one CommitDeltas). A
// batch folds all-or-nothing, so a recovered state that mixes two
// generations of a publish matches no prefix.
type tortureOp struct {
	del   bool
	id    int64
	batch []tortureOp
}

// foldOps applies ops to the key set.
func foldOps(set map[int64]bool, ops []tortureOp) {
	for _, op := range ops {
		switch {
		case len(op.batch) > 0:
			foldOps(set, op.batch)
		case op.del:
			delete(set, op.id)
		default:
			set[op.id] = true
		}
	}
}

// longestPrefix returns the largest m for which folding ops[:m] gives
// exactly got (the least implied loss), or -1 when no prefix does.
func longestPrefix(got map[int64]bool, ops []tortureOp) int {
	match, set := -1, map[int64]bool{}
	for m := 0; ; m++ {
		if maps.Equal(set, got) {
			match = m
		}
		if m == len(ops) {
			return match
		}
		foldOps(set, ops[m:m+1])
	}
}

var tortureSchema = MustSchema(Column{Name: "id", Kind: KindInt}, Column{Name: "v", Kind: KindString})

func tortureRow(id int64) Row {
	return Row{IntValue(id), StringValue(fmt.Sprintf("torture-%d", id))}
}

// tortureLog records what a workload attempted and how much of it was
// acknowledged.
type tortureLog struct {
	ops   []tortureOp
	acked int
}

// do records op as attempted and counts it acknowledged if commit
// succeeds.
func (l *tortureLog) do(op tortureOp, commit func() error) error {
	l.ops = append(l.ops, op)
	if err := commit(); err != nil {
		return err
	}
	l.acked++
	return nil
}

// insertAll inserts keys from..to-1 one row a commit and returns the
// row IDs acknowledged.
func (l *tortureLog) insertAll(db *DB, from, to int64) ([]int64, error) {
	var rids []int64
	for id := from; id < to; id++ {
		var rid int64
		if err := l.do(tortureOp{id: id}, func() (err error) {
			rid, err = db.Insert("t", tortureRow(id))
			return err
		}); err != nil {
			return rids, err
		}
		rids = append(rids, rid)
	}
	return rids, nil
}

// tortureWorkloads run on a store whose table t runTorture has just
// created; each stops at its first error (the injected fault or the
// power cut).
var tortureWorkloads = []struct {
	name string
	run  func(db *DB, l *tortureLog) error
}{
	{"insert", func(db *DB, l *tortureLog) error {
		_, err := l.insertAll(db, 0, 16)
		return err
	}},
	{"delete", func(db *DB, l *tortureLog) error {
		rids, err := l.insertAll(db, 0, 10)
		if err != nil {
			return err
		}
		for i := 0; i < len(rids); i += 2 {
			if err := l.do(tortureOp{del: true, id: int64(i)}, func() error {
				_, err := db.Delete("t", rids[i])
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	}},
	{"checkpoint", func(db *DB, l *tortureLog) error {
		for _, from := range []int64{0, 6} {
			if _, err := l.insertAll(db, from, from+6); err != nil {
				return err
			}
			if err := db.Checkpoint(); err != nil {
				return err
			}
		}
		return nil
	}},
	{"sync-commit", func(db *DB, l *tortureLog) error {
		// The integrate.Sync publish shape: each round replaces the
		// previous generation of rows with the next in one CommitDeltas
		// (one WAL batch record), attempted and acknowledged as one op.
		var prevRIDs, prevIDs []int64
		for r := int64(0); r < 5; r++ {
			var op tortureOp
			delta := TableDelta{Table: "t", DeleteIDs: prevRIDs}
			for _, id := range prevIDs {
				op.batch = append(op.batch, tortureOp{del: true, id: id})
			}
			prevIDs = nil
			for id := 100 * r; id < 100*r+4; id++ {
				op.batch = append(op.batch, tortureOp{id: id})
				delta.Inserts = append(delta.Inserts, tortureRow(id))
				prevIDs = append(prevIDs, id)
			}
			if err := l.do(op, func() error { return db.CommitDeltas([]TableDelta{delta}) }); err != nil {
				return err
			}
			tab, err := db.Table("t")
			if err != nil {
				return err
			}
			prevRIDs = nil
			tab.Scan(func(rid int64, _ Row) bool {
				prevRIDs = append(prevRIDs, rid)
				return true
			})
		}
		return nil
	}},
}

// torturePolicies pair each sync policy with its bound on lost
// acknowledged ops (< 0: unbounded).
var torturePolicies = []struct {
	name    string
	pol     SyncPolicy
	maxLoss int
}{
	{"always", SyncAlways, 0},
	{"interval", SyncInterval, faultOpts(nil, SyncInterval).SyncEvery},
	{"off", SyncOff, -1},
}

// tortureMixes place the faults around crash point k: the power cut
// lands at op k+cut, and a mixed run first lands lead at op k when that
// op is of kind on.
var tortureMixes = []struct {
	name   string
	stride int // visit every stride-th crash point
	lead   vfs.Fault
	on     vfs.OpKind
	cut    int
}{
	{"crash", 1, vfs.FaultNone, vfs.OpWrite, 0},
	{"torn+crash", 3, vfs.FaultTorn, vfs.OpWrite, 2},
	{"syncfail+crash", 3, vfs.FaultSyncFail, vfs.OpSync, 2},
}

// runTorture opens a store over fsys, creates table t and runs the
// workload until its first error.
func runTorture(fsys vfs.FS, pol SyncPolicy, run func(*DB, *tortureLog) error) *tortureLog {
	l := &tortureLog{}
	db, err := OpenWith("db", faultOpts(fsys, pol))
	if err != nil {
		return l
	}
	defer db.Close()
	if _, err := db.CreateTable("t", tortureSchema); err == nil {
		_ = run(db, l)
	}
	return l
}

// verifyTorture reopens the bytes that survived the reboot and returns
// the broken claim, or "" when every one holds.
func verifyTorture(fsys *vfs.FaultFS, wfs vfs.FS, pol SyncPolicy, l *tortureLog, maxLoss int) string {
	if _, err := fsys.Stat("db"); err != nil {
		// The cut predates the store directory: the empty state folds
		// the empty prefix.
		if maxLoss >= 0 && l.acked > maxLoss {
			return fmt.Sprintf("store directory lost with %d acked ops (bound %d)", l.acked, maxLoss)
		}
		return ""
	}
	if err := VerifyDir(fsys, "db"); err != nil {
		return fmt.Sprintf("surviving bytes fail verification (crash residue must be torn, not corrupt): %v", err)
	}
	db, err := OpenWith("db", faultOpts(wfs, pol))
	if err != nil {
		return fmt.Sprintf("store did not reopen from surviving bytes: %v", err)
	}
	defer db.Close()
	got := map[int64]bool{}
	if tab, err := db.Table("t"); err == nil {
		tab.Scan(func(_ int64, r Row) bool {
			got[r[0].I] = true
			return true
		})
	}
	switch m := longestPrefix(got, l.ops); {
	case m < 0:
		return fmt.Sprintf("recovered state (%d rows) is no prefix fold of the %d attempted ops: torn or reordered apply", len(got), len(l.ops))
	case maxLoss >= 0 && l.acked-m > maxLoss:
		return fmt.Sprintf("lost %d acknowledged ops (acked=%d, recovered prefix=%d, bound %d)", l.acked-m, l.acked, m, maxLoss)
	}
	return ""
}

// tortureMatrix power-cuts every workload under every policy and fault
// mix at every crash point and returns the number of points visited and
// one line per violation, naming seed, workload, policy, mix and crash
// point so the run replays exactly. wrap, when non-nil, decorates each
// filesystem before the store sees it.
func tortureMatrix(seed int64, wrap func(vfs.FS) vfs.FS) (points int, violations []string) {
	if wrap == nil {
		wrap = func(fsys vfs.FS) vfs.FS { return fsys }
	}
	for _, w := range tortureWorkloads {
		for _, p := range torturePolicies {
			// A dry run counts the mutating filesystem ops: each is a
			// crash point.
			dry := vfs.NewFault(seed)
			runTorture(wrap(dry), p.pol, w.run)
			n := dry.MutOps()
			for _, mix := range tortureMixes {
				for k := 1; k <= n; k += mix.stride {
					fsys := vfs.NewFault(seed)
					fsys.SetInjector(func(op vfs.Op) vfs.Fault {
						switch {
						case op.N == k+mix.cut:
							return vfs.FaultCrash
						case op.N == k && op.Kind == mix.on:
							return mix.lead
						}
						return vfs.FaultNone
					})
					wfs := wrap(fsys)
					l := runTorture(wfs, p.pol, w.run)
					fsys.SetInjector(nil)
					fsys.Reboot()
					if detail := verifyTorture(fsys, wfs, p.pol, l, p.maxLoss); detail != "" {
						violations = append(violations, fmt.Sprintf("seed=%d workload=%s policy=%s mix=%s crash-point=%d: %s",
							seed, w.name, p.name, mix.name, k, detail))
					}
					points++
				}
			}
		}
	}
	return points, violations
}

// TestTortureMatrix requires at least 200 crash points over {insert,
// delete, checkpoint, sync-commit} × {always, interval, off} × {crash,
// torn+crash, syncfail+crash} and no violation at any of them.
func TestTortureMatrix(t *testing.T) {
	points, violations := tortureMatrix(1, nil)
	if len(violations) > 0 {
		t.Fatalf("%d durability violations over %d crash points; first: %s", len(violations), points, violations[0])
	}
	if points < 200 {
		t.Fatalf("enumerated %d crash points, want >= 200", points)
	}
	t.Logf("%d crash points, 0 violations", points)
}

// TestTortureHasTeeth re-breaks a real durability bug — the directory
// fsync after atomic renames and WAL creation, dropped by vfs.NoDirSync
// — and requires the matrix to catch it: without it a renamed snapshot
// or a freshly created WAL can vanish at power loss while the WAL
// truncation survives, losing acknowledged writes under SyncAlways. If
// this finds nothing, TestTortureMatrix's zero proves nothing.
func TestTortureHasTeeth(t *testing.T) {
	points, violations := tortureMatrix(1, vfs.NoDirSync)
	if len(violations) == 0 {
		t.Fatalf("dropping the directory fsync produced no violation over %d crash points", points)
	}
	t.Logf("dropping the directory fsync caught: %d violations over %d crash points; first: %s", len(violations), points, violations[0])
}
