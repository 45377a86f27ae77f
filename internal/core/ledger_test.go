package core_test

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"drugtree/internal/core"
	"drugtree/internal/datagen"
	"drugtree/internal/integrate"
	"drugtree/internal/mobile"
	"drugtree/internal/store"
)

var updateCounts = flag.Bool("update-counts", false, "rewrite testdata/counts.golden from the current code")

const (
	countsGolden = "testdata/counts.golden"
	// ledgerReps is how many times each class's statements (and how many
	// ingest commits) one count averages over.
	ledgerReps = 10
	// ledgerTolerance is the relative drift an alloc or byte count may
	// show against the golden; rows examined and reply bytes are exact.
	ledgerTolerance = 0.02
	// ledgerCommitRows is one ingest commit's deletes, and its inserts:
	// the repository benchmark's ingest op.
	ledgerCommitRows = 512
)

// ledgerEntry is one line of the count ledger: allocations and bytes
// allocated per statement of a class (per commit, for ingest), and the
// rows the class's statements examine and the bytes of their rev-5
// replies, summed over its draws (-1 for ingest, which reads nothing).
type ledgerEntry struct {
	name           string
	allocs, bytes  float64
	examined, wire int64
}

func (l ledgerEntry) String() string {
	return fmt.Sprintf("%-14s %10.1f %12.1f %9d %7d", l.name, l.allocs, l.bytes, l.examined, l.wire)
}

// TestCountLedger pins what the served path costs in counts, which the
// host's load cannot move: for each analytics statement class, the
// allocations and bytes one statement allocates served through
// QueryColumns (DefaultConfig: no statement cache) at GOMAXPROCS 1, the
// rows its statements examine and the bytes of their replies on the
// wire; and one 512 + 512-row ingest commit's allocations and bytes.
// It compares them with testdata/counts.golden: allocations and bytes
// within 2 %, rows and reply bytes exactly. A change that moves a count
// on purpose rewrites the golden with `go test ./internal/core -run
// TestCountLedger -update-counts` and names each moved entry; `make
// ledger` prints the table.
func TestCountLedger(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector moves allocation counts")
	}
	core.SetProcs(t, 1)
	e := core.BuildEngineFrom(t, core.SmokeD1(), core.DefaultConfig())
	ctx := context.Background()
	stmts := core.AnalyticsStatements(t, e)
	var got []ledgerEntry
	for _, s := range stmts {
		if _, err := e.QueryColumns(ctx, s.Text); err != nil {
			t.Fatalf("%s: %q: %v", s.Class, s.Text, err)
		}
	}
	for from := 0; from < len(stmts); {
		class := stmts[from].Class
		to := from
		for to < len(stmts) && stmts[to].Class == class {
			to++
		}
		texts := stmts[from:to]
		entry := ledgerEntry{name: class}
		for _, s := range texts {
			res, err := e.QueryColumns(ctx, s.Text)
			if err != nil {
				t.Fatal(err)
			}
			entry.examined += res.Stats.RowsScanned + res.Stats.RowsIndexed
			n, err := mobile.MsgSize(&mobile.QueryResult{Columns: res.Columns, Batch: res.Batch, Dict: res.Dict})
			if err != nil {
				t.Fatalf("%s: encoding the reply to %q: %v", class, s.Text, err)
			}
			entry.wire += n
		}
		entry.allocs, entry.bytes = allocated(ledgerReps*len(texts), func(i int) {
			if _, err := e.QueryColumns(ctx, texts[i%len(texts)].Text); err != nil {
				t.Fatal(err)
			}
		})
		got = append(got, entry)
		from = to
	}
	got = append(got, ingestEntry(t, e))

	var b strings.Builder
	b.WriteString("# class           allocs/op     bytes/op  examined   reply\n")
	for _, l := range got {
		b.WriteString(l.String() + "\n")
	}
	t.Logf("count ledger:\n%s", b.String())
	if *updateCounts {
		if err := os.WriteFile(countsGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := readLedger(countsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s holds %d entries, the ledger %d (rerun with -update-counts only for an intended change)", countsGolden, len(want), len(got))
	}
	for i, g := range got {
		w := want[i]
		switch {
		case w.name != g.name:
			t.Errorf("entry %d is %s, %s has %s", i, g.name, countsGolden, w.name)
		case !near(g.allocs, w.allocs) || !near(g.bytes, w.bytes):
			t.Errorf("%s: %.1f allocs and %.1f B an op, %s has %.1f and %.1f (±%.0f %%)", g.name, g.allocs, g.bytes, countsGolden, w.allocs, w.bytes, 100*ledgerTolerance)
		case g.examined != w.examined || g.wire != w.wire:
			t.Errorf("%s: %d rows examined and %d reply bytes, %s has %d and %d", g.name, g.examined, g.wire, countsGolden, w.examined, w.wire)
		}
	}
}

// allocated runs f(0) … f(n-1) and returns the allocations and bytes
// allocated a call.
func allocated(n int, f func(i int)) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range n {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// ingestEntry measures one ingest commit on e's activities: 512 live
// rows deleted and 512 drawn from the dataset's proteins, ligands and
// affinities inserted, as the repository benchmark's churn does, the
// overlay hooked. One warm-up commit goes first; the deltas are built
// outside the count.
func ingestEntry(t *testing.T, e *core.Engine) ledgerEntry {
	ds, err := datagen.Generate(core.SmokeD1())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	leaves := e.Tree().LeafNames()
	slices.Sort(leaves)
	snap := e.DB().PinSnapshot()
	tv, err := snap.View(integrate.TableActivities)
	if err != nil {
		t.Fatal(err)
	}
	var live []int64
	tv.Scan(func(id int64, _ store.Row) bool {
		live = append(live, id)
		return true
	})
	snap.Release()
	slices.Sort(live)
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	if len(live) < (ledgerReps+1)*ledgerCommitRows {
		t.Fatalf("%d live activities, want %d", len(live), (ledgerReps+1)*ledgerCommitRows)
	}
	deltas := make([][]store.TableDelta, ledgerReps+1)
	for i := range deltas {
		d := store.TableDelta{Table: integrate.TableActivities, DeleteIDs: live[i*ledgerCommitRows : (i+1)*ledgerCommitRows]}
		for range ledgerCommitRows {
			d.Inserts = append(d.Inserts, store.Row{
				store.StringValue(leaves[rng.Intn(len(leaves))]),
				store.StringValue(ds.Ligands[rng.Intn(len(ds.Ligands))].ID),
				store.FloatValue(ds.Activities[rng.Intn(len(ds.Activities))].Affinity),
				store.StringValue("churn"),
			})
		}
		deltas[i] = []store.TableDelta{d}
	}
	commit := func(i int) {
		if err := e.DB().CommitDeltas(deltas[i]); err != nil {
			t.Fatal(err)
		}
	}
	commit(0)
	allocs, bytes := allocated(ledgerReps, func(i int) { commit(i + 1) })
	return ledgerEntry{name: "ingest_commit", allocs: allocs, bytes: bytes, examined: -1, wire: -1}
}

// near reports whether got is within ledgerTolerance of want.
func near(got, want float64) bool { return math.Abs(got-want) <= ledgerTolerance*want }

// readLedger parses a ledger file: one entry a line, # comments.
func readLedger(path string) ([]ledgerEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []ledgerEntry
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 5 {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		l := ledgerEntry{name: f[0]}
		var errs [4]error
		l.allocs, errs[0] = strconv.ParseFloat(f[1], 64)
		l.bytes, errs[1] = strconv.ParseFloat(f[2], 64)
		l.examined, errs[2] = strconv.ParseInt(f[3], 10, 64)
		l.wire, errs[3] = strconv.ParseInt(f[4], 10, 64)
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("%s: line %q: %w", path, line, err)
			}
		}
		out = append(out, l)
	}
	return out, nil
}
