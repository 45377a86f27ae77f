package replica

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"drugtree/internal/store"
)

// TestFollowerReadsNeverStraddleACommit is the follower half of
// snapshot isolation: a shipped WAL record is a whole leader commit, and
// a follower applies it under its database write lock, so a snapshot
// pinned on the follower while Ship is applying must see every table of
// a multi-table commit or none, and never a replace's delete without its
// insert. Each leader commit g inserts row g into tables a and b and
// replaces the single row of table c with one carrying g; readers pin
// follower snapshots throughout and check that a and b hold the same
// rows and that c holds exactly one row, carrying their count. Run under
// -race by `make race-replication`.
func TestFollowerReadsNeverStraddleACommit(t *testing.T) {
	const commits, readers = 150, 3
	s := newTestSet(t, 2, 0)
	lead := s.Leader()
	schema := store.MustSchema(store.Column{Name: "g", Kind: store.KindInt})
	for _, name := range []string{"a", "b", "c"} {
		if _, err := lead.CreateTable(name, schema); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := lead.Insert("c", store.Row{store.IntValue(0)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Ship(ctx); err != nil {
		t.Fatal(err)
	}

	check := func(db *store.DB) error {
		snap := db.PinSnapshot()
		defer snap.Release()
		var lens [3]int
		var held []store.Row
		for i, name := range []string{"a", "b", "c"} {
			view, err := snap.View(name)
			if err != nil {
				return err
			}
			lens[i] = view.Len()
			if name == "c" {
				held = view.Snapshot()
			}
		}
		if lens[0] != lens[1] {
			return fmt.Errorf("one table of a commit without the other: a holds %d rows, b %d", lens[0], lens[1])
		}
		if len(held) != 1 {
			return fmt.Errorf("half a replace: c holds %d rows at a = b = %d", len(held), lens[0])
		}
		if held[0][0].I != int64(lens[0]) {
			return fmt.Errorf("c carries generation %d beside %d rows in a and b", held[0][0].I, lens[0])
		}
		return nil
	}

	done := make(chan struct{})
	errs := make(chan error, readers) // one send at most from each reader
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				// Followers are nodes 1 and 2; no reseed happens here, so
				// their stores stay the ones seeded at NewSet.
				if err := check(s.nodes[1+r%2].state.Load().db); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	for g := int64(1); g <= commits; g++ {
		row := store.Row{store.IntValue(g)}
		err := lead.CommitDeltas([]store.TableDelta{
			{Table: "a", Inserts: []store.Row{row}},
			{Table: "b", Inserts: []store.Row{row}},
			{Table: "c", DeleteIDs: []int64{cur}, Inserts: []store.Row{row}},
		})
		if err != nil {
			t.Fatal(err)
		}
		tc, _ := lead.Table("c")
		tc.Scan(func(id int64, _ store.Row) bool { cur = id; return false })
		if g%3 == 0 { // ship a few commits at a time, so one tick applies several records
			if err := s.Ship(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i := 1; i <= 2; i++ {
		db := s.nodes[i].state.Load().db
		if err := check(db); err != nil {
			t.Errorf("follower %d at rest: %v", i, err)
		}
		if ta, _ := db.Table("a"); ta.Len() != commits {
			t.Errorf("follower %d applied %d of %d commits", i, ta.Len(), commits)
		}
	}
}
